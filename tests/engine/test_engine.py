"""Tests for the engine: the trace loop, timeline, error paths."""

import pytest

from repro.apps import make_compute_app
from repro.be import BackEnd, minimal_daemon
from repro.cluster.process import DebugEventType, ProcState
from repro.engine import (
    ComponentTimes,
    EngineError,
    LaunchMONEngine,
    LaunchTimeline,
)
from repro.fe import SessionState, ToolFrontEnd
from repro.rm import (DaemonSpec, JobState, RshRM, SlurmConfig, SlurmRM,
                      UnsupportedOperation)
from repro.runner import drive, make_env


class UserBreakpointRM(SlurmRM):
    """A SLURM launcher that first stops at a breakpoint of its own."""

    def run_launcher(self, job):
        launcher = job.launcher
        if launcher.state is ProcState.STOPPED:
            yield launcher.wait_resumed()
        yield from self._emit_and_wait(
            launcher, DebugEventType.BREAKPOINT, detail="user_bp")
        return (yield from super().run_launcher(job))


def _traced_launch(rm_cls=SlurmRM):
    """One launchAndSpawn on 4 nodes; returns ``(env, session, tracer)``."""
    env = make_env(n_compute=4, rm_cls=rm_cls)
    app = make_compute_app(n_tasks=32, tasks_per_node=8)
    box = {}

    def tool(env):
        fe = ToolFrontEnd(env.cluster, env.rm, "t")
        yield from fe.init()
        s = box["session"] = fe.create_session()
        yield from fe.launch_and_spawn(s, app,
                                       DaemonSpec("d", main=minimal_daemon))
        box["tracer"] = s.engine.tracer
        yield from fe.detach(s)

    drive(env, tool(env))
    return env, box["session"], box["tracer"]


def _handling_sum(env, n_events):
    """``event_handle`` added once per traced event, as the engine adds it."""
    total = 0.0
    for _ in range(n_events):
        total += env.cluster.costs.event_handle
    return total


class TestTraceLoop:
    def test_trace_time_is_the_per_event_sum_of_handling_costs(self):
        env, session, tracer = _traced_launch()
        times = session.times
        # EXEC, ten helper FORKs and MPIR_Breakpoint: Figure 3's 12 events
        assert tracer.events_seen == 12
        # the sum of twelve additions, not twelve times the cost
        assert times.t_trace == _handling_sum(env, tracer.events_seen)
        # the RPDTAB fetch and the daemon spawn are their own terms
        assert times.t_rpdtab > 0 and times.t_daemon > 0

    def test_events_seen_is_the_configured_debug_event_count(self):
        _env, _session, tracer = _traced_launch()
        assert tracer.events_seen == SlurmConfig().debug_event_count

    def test_other_breakpoint_is_continued_and_charged(self):
        env, session, tracer = _traced_launch(UserBreakpointRM)
        assert session.state is SessionState.DETACHED
        assert tracer.events_seen == 13
        assert session.times.t_trace == _handling_sum(env,
                                                      tracer.events_seen)
        # one more handled event than a plain launch, and the launch
        # still reaches MPIR_Breakpoint and spawns its daemons
        _env, plain, _tracer = _traced_launch()
        assert session.times.t_trace == pytest.approx(
            plain.times.t_trace + env.cluster.costs.event_handle)
        assert session.times.t_daemon == pytest.approx(plain.times.t_daemon)
        assert len(session.daemons) == len(plain.daemons) == 4


class TestTimeline:
    def test_span_and_total(self):
        tl = LaunchTimeline()
        tl.mark("e0_client_call", 1.0)
        tl.mark("e3_breakpoint", 3.5)
        tl.mark("e11_returned", 5.0)
        assert tl.span("e0_client_call", "e3_breakpoint") == 2.5
        assert tl.total() == 4.0

    def test_component_times_close_books(self):
        ct = ComponentTimes(t_job=1.0, t_trace=0.1, total=1.5)
        ct.close_books()
        assert ct.t_other == pytest.approx(0.4)
        assert ct.launchmon_time() == pytest.approx(0.5)
        assert ct.launchmon_fraction() == pytest.approx(0.5 / 1.5)

    def test_rm_vs_launchmon_split(self):
        ct = ComponentTimes(t_job=1, t_daemon=2, t_setup=3, t_collective=4,
                            t_trace=5, t_rpdtab=6, t_handshake=7, t_other=8)
        assert ct.rm_time() == 10
        assert ct.launchmon_time() == 26


class TestEngineErrors:
    def test_attach_to_unlaunched_job_rejected(self):
        env = make_env(n_compute=2)
        app = make_compute_app(n_tasks=8)

        def scenario(env):
            job = yield from env.rm.create_launcher(app, env.rm.allocate(1))
            engine = LaunchMONEngine(env.cluster, env.rm)
            spec = DaemonSpec("d", main=lambda ctx: iter(()))
            try:
                yield from engine.attach_and_spawn(job, spec, lambda *a: None)
            except EngineError as exc:
                return str(exc)

        msg = drive(env, scenario(env))
        assert "cannot attach" in msg

    def test_rsh_rm_daemon_launch_unsupported(self):
        """The portability argument: no native launch service -> no spawn."""
        env = make_env(n_compute=2, rm_cls=RshRM)
        app = make_compute_app(n_tasks=8)

        def daemon(ctx):
            yield ctx.sim.timeout(0)

        def scenario(env):
            job = yield from env.rm.launch_job(app, env.rm.allocate(1))
            assert job.state is JobState.RUNNING
            spec = DaemonSpec("d", main=daemon)
            try:
                yield from env.rm.spawn_daemons(job, spec, lambda *a: None)
            except UnsupportedOperation as exc:
                return str(exc)

        msg = drive(env, scenario(env))
        assert "no native tool-daemon launch service" in msg

    def test_kill_job_terminates_everything(self):
        env = make_env(n_compute=2)
        app = make_compute_app(n_tasks=16, tasks_per_node=8)

        def daemon(ctx):
            be = BackEnd(ctx)
            yield from be.init()
            yield from be.ready()
            yield from be.finalize()

        box = {}

        def scenario(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(
                s, app, DaemonSpec("d", main=daemon))
            yield from fe.kill(s)
            box["job"] = s.job

        drive(env, scenario(env))
        assert box["job"].state is JobState.FAILED
        assert all(not t.alive for t in box["job"].tasks)
        assert not box["job"].launcher.alive


class TestBglPlatform:
    def test_bgl_spawning_significantly_slower(self):
        """Section 4: T(job)/T(daemon) much higher on BG/L's mpirun."""
        from repro.experiments.fig3 import measure_launch_and_spawn
        from repro import BglMpirunRM

        atlas_times, _, _ = measure_launch_and_spawn(16)

        env = make_env(n_compute=16, rm_cls=BglMpirunRM)
        app = make_compute_app(n_tasks=128, tasks_per_node=8)

        def daemon(ctx):
            be = BackEnd(ctx)
            yield from be.init()
            yield from be.ready()
            yield from be.finalize()

        box = {}

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "bench")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(
                s, app, DaemonSpec("d", main=daemon, image_mb=1.0))
            box["times"] = s.times
            yield from fe.detach(s)

        drive(env, tool(env))
        bgl = box["times"]
        assert bgl.t_job > 1.5 * atlas_times.t_job
        assert bgl.t_daemon > 1.5 * atlas_times.t_daemon
        # but LaunchMON's own overheads stay similar (the paper's finding)
        assert bgl.t_trace == pytest.approx(atlas_times.t_trace, rel=0.3)
        assert bgl.t_rpdtab == pytest.approx(atlas_times.t_rpdtab, rel=0.3)

    def test_bgl_launcher_is_mpirun(self):
        from repro import BglMpirunRM
        env = make_env(n_compute=2, rm_cls=BglMpirunRM)
        assert env.rm.launcher_executable() == "mpirun"
