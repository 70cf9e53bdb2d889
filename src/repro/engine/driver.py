"""The Driver: LaunchMON Engine orchestration.

Implements the two acquisition modes of the FE API (Section 3.2) up to the
point where daemons are spawned; the front-end runtime completes the
handshake. The engine records the Figure 2 timeline (e1..e6 here; the FE
adds e0 and e7..e11) and the component times for the Section 4 model.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.apps import AppSpec
from repro.cluster import Cluster, SimProcess
from repro.engine.decoder import EventDecoder
from repro.engine.events import LMONEvent, LMONEventType
from repro.engine.handlers import EventHandlerTable
from repro.engine.manager import EventManager
from repro.engine.timeline import ComponentTimes, LaunchTimeline
from repro.lmonp import FeToEngine, LmonpMessage, LmonpStream, MsgClass
from repro.mpir import (
    MPIR_BEING_DEBUGGED,
    MPIR_DEBUG_SPAWNED,
    MPIR_DEBUG_STATE,
    RPDTAB,
    TracedProcess,
)
from repro.rm.base import Allocation, DaemonSpec, JobState, ResourceManager, RMJob

__all__ = ["ENGINE_EXECUTABLE", "EngineError", "LaunchMONEngine"]

#: identity of the engine process; shared with the FE's engine-reuse path
ENGINE_EXECUTABLE = "launchmon-engine"


class EngineError(RuntimeError):
    """Launch/attach failures observed by the engine."""


class LaunchMONEngine:
    """One engine instance serving one tool session.

    The engine runs co-located with the RM launcher process (front-end
    node); ``fe_stream`` carries LMONP traffic to the tool front end.
    """

    def __init__(self, cluster: Cluster, rm: ResourceManager,
                 fe_stream: Optional[LmonpStream] = None):
        self.cluster = cluster
        self.rm = rm
        self.sim = cluster.sim
        self.decoder = EventDecoder()
        self.handlers = EventHandlerTable(
            self.sim, cluster.costs.event_handle)
        self.manager: Optional[EventManager] = None
        self.tracer: Optional[TracedProcess] = None
        self.fe_stream = fe_stream
        self.proc: Optional[SimProcess] = None
        #: False when the FE shares one engine process across sessions --
        #: then detach() leaves the process alive for the next launch
        self.owns_proc = True
        self.timeline = LaunchTimeline()
        self.times = ComponentTimes()
        self.job: Optional[RMJob] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self, proc: Optional[SimProcess] = None,
              ) -> Generator[Any, Any, None]:
        """Fork the engine process on the front-end node (e1).

        With ``proc`` (a live engine process from an earlier session of the
        same front end) the fork is skipped entirely: the engine adopts the
        process, so session N>1 pays no e1 fork cost.
        """
        self.timeline.mark("e1_engine_invoked", self.sim.now)
        if proc is not None and proc.alive:
            self.proc = proc
            return
        self.proc = yield from self.cluster.front_end.fork_exec(
            ENGINE_EXECUTABLE, image_mb=self.cluster.costs.engine_image_mb)

    # -- launch mode ------------------------------------------------------------
    def launch_and_spawn(self, app: AppSpec, alloc: Allocation,
                         daemon_spec: DaemonSpec,
                         context_factory: Callable[..., Any],
                         ) -> Generator[Any, Any, tuple]:
        """Launch a job under tool control and co-locate daemons (e2..e6)."""
        sim = self.sim
        job = yield from self.rm.create_launcher(app, alloc)
        self.job = job
        tracer = TracedProcess(job.launcher, "lmon-engine")
        self.tracer = tracer
        self.manager = EventManager(tracer)
        yield from tracer.attach()
        yield from tracer.write_symbol(MPIR_BEING_DEBUGGED, 1)
        self.timeline.mark("e2_launcher_started", sim.now)

        results: dict[str, Any] = {}

        def on_spawned(event: LMONEvent) -> Generator[Any, Any, str]:
            # the paper's key handler: fetch RPDTAB, launch daemons,
            # forward the table to the front end
            results["spawned"] = yield from self._fetch_and_spawn(
                job, daemon_spec, context_factory)
            return "spawned"

        self.handlers.register(LMONEventType.TASKS_SPAWNED, on_spawned)

        # run the launcher protocol and drive the event loop. The
        # protocol process is defused: if the launch dies underneath us
        # (node crash during task spawn), the launcher's exit surfaces
        # through the debug-event stream as RM_EXITED below -- the
        # process failure itself must not detonate the simulation
        launcher_proc = sim.process(self.rm.run_launcher(job),
                                    name=f"{self.rm.name}-launcher")
        launcher_proc.defuse()
        t_run_start = sim.now
        yield from tracer.cont()
        while True:
            native = yield from self.manager.poll()
            lmon_event = self.decoder.decode(native)
            outcome = yield from self.handlers.dispatch(lmon_event)
            if outcome == "spawned":
                break
            if lmon_event.etype in (LMONEventType.RM_EXITED,
                                    LMONEventType.JOB_ABORTED):
                raise EngineError(
                    f"RM launcher failed during launch: {lmon_event.etype}")
            yield from tracer.cont()

        self.times.t_trace = self.handlers.trace_time
        # T(job): time from first continue to MPIR_Breakpoint, minus the
        # engine's own tracing overhead interleaved in that window.
        t_job_window = (self.timeline.marks["e3_breakpoint"] - t_run_start)
        self.times.t_job = max(0.0, t_job_window - self.times.t_trace)

        # let the application run past MPIR_Breakpoint
        yield from tracer.cont()
        rpdtab, daemons, fabric = results["spawned"]
        yield from self._send_proctab(rpdtab)
        return job, daemons, fabric, rpdtab

    # -- attach mode -----------------------------------------------------------
    def attach_and_spawn(self, job: RMJob, daemon_spec: DaemonSpec,
                         context_factory: Callable[..., Any],
                         ) -> Generator[Any, Any, tuple]:
        """Attach to a running job's launcher and co-locate daemons."""
        sim = self.sim
        if job.state is not JobState.RUNNING:
            raise EngineError(f"cannot attach: job {job.jobid} is {job.state}")
        self.job = job
        tracer = TracedProcess(job.launcher, "lmon-engine")
        self.tracer = tracer
        self.manager = EventManager(tracer)
        yield from tracer.attach()
        self.timeline.mark("e2_launcher_started", sim.now)
        state = yield from tracer.read_symbol(MPIR_DEBUG_STATE)
        if state != MPIR_DEBUG_SPAWNED:
            raise EngineError(f"launcher MPIR_debug_state={state}; job not "
                              f"acquirable")
        rpdtab, daemons, fabric = yield from self._fetch_and_spawn(
            job, daemon_spec, context_factory)
        # resume the launcher; the job was never stopped in attach mode
        yield from tracer.cont()
        yield from self._send_proctab(rpdtab)
        return job, daemons, fabric, rpdtab

    # -- middleware launch --------------------------------------------------------
    def launch_mw(self, alloc: Allocation, spec: DaemonSpec,
                  context_factory: Callable[..., Any],
                  topology: Optional[str] = None,
                  ) -> Generator[Any, Any, tuple]:
        """Spawn middleware daemons on a dedicated allocation; returns
        the RM's ``(daemons, fabric, report)``. The spawn is not part of
        the back-end launch, so ``times`` -- the breakdown of one
        launchAndSpawn/attachAndSpawn -- does not change."""
        return (yield from self.rm.spawn_on_allocation(
            alloc, spec, context_factory, topology=topology))

    # -- teardown / control --------------------------------------------------------
    def detach(self) -> Generator[Any, Any, None]:
        """Detach from the RM launcher; retire the engine process if owned."""
        if self.tracer is not None and self.tracer.attached:
            yield from self.tracer.detach()
        if self.owns_proc and self.proc is not None and self.proc.alive:
            self.proc.exit(0)

    def kill_job(self) -> Generator[Any, Any, None]:
        """Terminate the target job (FE API's job-control requirement)."""
        if self.job is None:
            raise EngineError("no job bound to this engine")
        yield self.sim.timeout(self.cluster.costs.sched_grain)
        for task in self.job.tasks:
            task.exit(9)
        if self.tracer is not None and self.tracer.attached:
            yield from self.tracer.detach()
        if self.job.launcher.alive:
            self.job.launcher.exit(9)
        self.job.state = JobState.FAILED

    # -- internals ---------------------------------------------------------------
    def _fetch_and_spawn(self, job: RMJob, daemon_spec: DaemonSpec,
                         context_factory: Callable[..., Any],
                         ) -> Generator[Any, Any, tuple]:
        """e3 -> e6, shared by both acquisition modes: read the RPDTAB
        through the tracer, then co-locate the daemons. Returns
        ``(rpdtab, daemons, fabric)``."""
        sim = self.sim
        self.timeline.mark("e3_breakpoint", sim.now)
        t3 = sim.now
        rpdtab = yield from self.tracer.read_proctable()
        self.timeline.mark("e4_rpdtab_fetched", sim.now)
        self.times.t_rpdtab = sim.now - t3
        self.timeline.mark("e5_daemon_spawn_req", sim.now)
        t5 = sim.now
        daemons, fabric = yield from self.rm.spawn_daemons(
            job, daemon_spec, context_factory)
        self.timeline.mark("e6_daemons_spawned", sim.now)
        self.times.t_daemon = sim.now - t5
        return rpdtab, daemons, fabric

    def _send_proctab(self, rpdtab: RPDTAB) -> Generator[Any, Any, None]:
        """Forward the RPDTAB to the front end over LMONP."""
        if self.fe_stream is None:
            return
        msg = LmonpMessage(
            MsgClass.FE_ENGINE, FeToEngine.PROCTAB,
            num_tasks=len(rpdtab), lmon_payload=rpdtab.to_bytes())
        yield self.fe_stream.send(msg)
