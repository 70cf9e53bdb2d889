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
from repro.launch import LaunchRequest, get_strategy
from repro.rm.base import (
    Allocation,
    DaemonSpec,
    JobState,
    ResourceManager,
    RMError,
    RMJob,
    UnsupportedOperation,
)

__all__ = ["RshRM"]


class RshRM(ResourceManager):
    """No native launcher: jobs start via a sequential rsh loop."""

    name = "rsh-only"
    supports_daemon_launch = False
    provides_fabric = False

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
        hooks and no policy: the loop stops at the first failed spawn,
        the job is marked FAILED and ended (its started tasks and the
        launcher exit, so a tracer sees the launcher's EXITED event, as
        under SLURM's abort), and :class:`~repro.rm.base.RMError` raises
        with the report's first failure. The allocation stays with its
        owner.
        """
        launcher = job.launcher
        if launcher.state.value == "T":
            yield launcher.wait_resumed()
        job.state = JobState.LAUNCHING
        app = job.app
        placement = self._place_tasks(app, job.allocation)
        ranks = [rank for _, rank in placement]

        result = yield from get_strategy("serial-rsh").launch(LaunchRequest(
            cluster=self.cluster,
            nodes=[node for node, _ in placement],
            executable=app.executable,
            args_for=lambda i, node: (f"rank={ranks[i]}",),
            image_mb_for=lambda i, node: (
                app.image_mb if ranks[i] % app.tasks_per_node == 0 else 0.0),
            post_spawn=lambda i, node, proc: job.add_task(proc, ranks[i])))
        report = result.report
        if report.failure:
            job.state = JobState.FAILED
            job.end(1)
            raise RMError(
                f"{self.name}: task launch stopped at {result.n_spawned}/"
                f"{report.requested} -- {report.failure}")
        job.publish_mpir()
        job.state = JobState.RUNNING
        return job

    def spawn_daemons(self, job: RMJob, spec: DaemonSpec,
                      context_factory: Callable[..., Any],
                      ) -> Generator[Any, Any, Any]:
        raise UnsupportedOperation(
            f"{self.name}: no native tool-daemon launch service; "
            f"use an rsh launch strategy (repro.launch) or a capable RM")
        yield  # pragma: no cover

    def spawn_on_allocation(self, alloc: Allocation, spec: DaemonSpec,
                            context_factory: Callable[..., Any],
                            ) -> Generator[Any, Any, Any]:
        raise UnsupportedOperation(
            f"{self.name}: no native middleware launch service")
        yield  # pragma: no cover
