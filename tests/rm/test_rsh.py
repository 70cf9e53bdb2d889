"""Tests for the bare-cluster RM: job launch through a serial rsh loop."""

import pytest

from repro.apps import make_compute_app
from repro.cluster import Cluster, ClusterSpec
from repro.engine import EngineError
from repro.fe import ToolFrontEnd
from repro.fe.session import SessionState
from repro.rm import DaemonSpec, JobState, RMError, RshRM
from repro.runner import drive, make_env
from tests.conftest import run_gen


def _parked(ctx):
    yield ctx.proc.exit_event


class TestRshJobLaunch:
    def test_refused_rsh_raises_rm_error_naming_the_node(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=2, seed=2,
                                           compute_rshd=False))
        rm = RshRM(cluster)
        alloc = rm.allocate(2)
        app = make_compute_app(n_tasks=4, tasks_per_node=2)
        with pytest.raises(RMError) as info:
            run_gen(sim, rm.launch_job(app, alloc))
        assert f"{alloc.nodes[0].name}: connection refused" in str(info.value)
        assert "stopped at 0/4" in str(info.value)

    def test_stopped_task_launch_ends_its_job(self, sim):
        """A launch that stops half-way leaves no task or launcher
        running; the allocation stays with whoever asked for it."""
        cluster = Cluster(sim, ClusterSpec(n_compute=2, seed=2))
        rm = RshRM(cluster)
        alloc = rm.allocate(2)
        alloc.nodes[1].fail()
        app = make_compute_app(n_tasks=4, tasks_per_node=2)
        with pytest.raises(RMError, match="stopped at 2/4"):
            run_gen(sim, rm.launch_job(app, alloc))
        job = rm.jobs[-1]
        assert job.state is JobState.FAILED
        assert len(job.tasks) == 2
        assert not any(t.alive for t in job.tasks)
        assert not job.launcher.alive
        assert alloc.alloc_id in rm.live_allocations

    def test_stopped_task_launch_fails_the_front_end_session(self):
        """Through launchAndSpawn the launcher's exit reaches the engine
        as an EXITED debug event: the launch raises instead of waiting
        forever, from the RM's own reason, and the session ends FAILED
        with its nodes released."""
        env = make_env(n_compute=2, rm_cls=RshRM)
        app = make_compute_app(n_tasks=4, tasks_per_node=2)
        box = {}

        def fail_second_node(session, old, new):
            if new is SessionState.SPAWNING:
                env.cluster.compute[1].fail()

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = box["session"] = fe.create_session()
            s.register_status_cb(fail_second_node)
            yield from fe.launch_and_spawn(s, app,
                                           DaemonSpec("d", main=_parked))

        with pytest.raises(EngineError, match="RM launcher failed") as info:
            drive(env, tool(env), until=100)
        cause = info.value.__cause__
        assert isinstance(cause, RMError)
        assert str(cause) == ("rsh-only: task launch stopped at 2/4 -- "
                              "atlas0001: no route to host (node failure)")
        assert box["session"].state is SessionState.FAILED
        job = env.rm.jobs[-1]
        assert job.state is JobState.FAILED
        assert not any(t.alive for t in job.tasks)
        assert not job.launcher.alive
        assert not env.rm.live_allocations
