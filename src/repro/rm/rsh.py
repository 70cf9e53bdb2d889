"""A bare cluster 'RM': allocation only, no native launch services.

This models the environment that forces tools into ad-hoc practices
(Section 2): the scheduler hands out nodes, but there is no scalable
daemon-launch command and no tool fabric. ``spawn_daemons`` raises
:class:`~repro.rm.base.UnsupportedOperation`; job launch itself falls back
to a sequential rsh loop. LaunchMON cannot run its efficient path here,
which is the portability gap the paper's abstraction closes on real RMs.

Even a bare scheduler still arbitrates nodes: the FIFO allocation queue
(:meth:`~repro.rm.base.ResourceManager.allocate_async`) is inherited from
the base RM, so concurrent tool sessions queue for nodes here exactly as
they do under SLURM or BG/L mpirun.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.apps import AppSpec
from repro.launch import LaunchRequest, SerialRshStrategy
from repro.mpir import MPIR_BEING_DEBUGGED
from repro.rm.base import (
    Allocation,
    DaemonSpec,
    JobState,
    ResourceManager,
    RMJob,
    UnsupportedOperation,
)

__all__ = ["RshRM"]


class RshRM(ResourceManager):
    """No native launcher: jobs start via a sequential rsh loop."""

    name = "rsh-only"
    supports_daemon_launch = False
    provides_fabric = False
    #: the fallback job-launch mechanism (daemon launch stays unsupported)
    task_strategy = SerialRshStrategy()

    def launcher_executable(self) -> str:
        return "mpirun-rsh"

    def create_launcher(self, app: AppSpec, alloc: Allocation,
                        ) -> Generator[Any, Any, RMJob]:
        fe = self.cluster.front_end
        launcher = yield from fe.fork_exec(
            self.launcher_executable(), args=(app.executable,),
            image_mb=self.cluster.costs.rsh_launcher_image_mb)
        launcher.stop()
        job = RMJob(app, alloc, launcher)
        self.jobs.append(job)
        return job

    def run_launcher(self, job: RMJob) -> Generator[Any, Any, RMJob]:
        """Sequential rsh start of every task -- the slow, fragile path.

        Routed through the unified ``serial-rsh``
        :class:`~repro.launch.LaunchStrategy` with per-rank argument/image
        hooks; spawn failures propagate (``on_failure="raise"``).
        """
        launcher = job.launcher
        if launcher.state.value == "T":
            yield launcher.wait_resumed()
        job.state = JobState.LAUNCHING
        app = job.app
        placement = self._place_tasks(app, job.allocation)
        ranks = [rank for _, rank in placement]

        def imprint(i, node, proc):
            proc.memory["_rank"] = ranks[i]
            app.apply_behavior(proc, ranks[i])
            job.tasks.append(proc)

        result = yield from self.task_strategy.launch(LaunchRequest(
            cluster=self.cluster,
            nodes=[node for node, _ in placement],
            executable=app.executable,
            args_for=lambda i, node: (f"rank={ranks[i]}",),
            image_mb_for=lambda i, node: (
                app.image_mb if ranks[i] % app.tasks_per_node == 0 else 0.0),
            post_spawn=imprint,
            on_failure="raise"))
        self.last_launch_report = result.report
        traced = launcher.memory.get(MPIR_BEING_DEBUGGED, 0)
        job.publish_mpir(stopped=bool(traced))
        job.state = JobState.RUNNING
        return job

    def launch_job(self, app: AppSpec, alloc: Allocation,
                   being_debugged: bool = False,
                   ) -> Generator[Any, Any, RMJob]:
        job = yield from self.create_launcher(app, alloc)
        job.launcher.resume()
        yield from self.run_launcher(job)
        return job

    def spawn_daemons(self, job: RMJob, spec: DaemonSpec,
                      context_factory: Callable[..., Any],
                      topology=None) -> Generator[Any, Any, Any]:
        raise UnsupportedOperation(
            f"{self.name}: no native tool-daemon launch service; "
            f"use an ad-hoc launcher (repro.adhoc) or a capable RM")
        yield  # pragma: no cover

    def spawn_on_allocation(self, alloc: Allocation, spec: DaemonSpec,
                            context_factory: Callable[..., Any],
                            topology=None) -> Generator[Any, Any, Any]:
        raise UnsupportedOperation(
            f"{self.name}: no native middleware launch service")
        yield  # pragma: no cover
