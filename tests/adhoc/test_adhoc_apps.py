"""Tests for ad-hoc launchers, app scenarios and the runner harness."""

import pytest

from repro.adhoc import sequential_rsh_launch, tree_rsh_launch
from repro.apps import (
    AppSpec,
    make_compute_app,
    make_hang_app,
    make_io_heavy_app,
    uniform_behavior,
)
from repro.cluster import ClusterSpec
from repro.cluster.process import ProcState
from repro.runner import drive, make_env
from repro.simx import Simulator


class TestSequentialRsh:
    def test_spawns_one_daemon_per_node(self):
        env = make_env(n_compute=6)
        box = {}

        def s(env):
            box["r"] = yield from sequential_rsh_launch(
                env.cluster, env.cluster.compute)

        drive(env, s(env))
        r = box["r"]
        assert not r.report.n_failed
        assert r.n_spawned == 6
        assert {p.node.name for p in r.procs} == {
            n.name for n in env.cluster.compute}

    def test_elapsed_linear(self):
        def t(n):
            env = make_env(n_compute=n)
            box = {}

            def s(env):
                box["r"] = yield from sequential_rsh_launch(
                    env.cluster, env.cluster.compute)

            drive(env, s(env))
            return box["r"].report.total

        assert t(16) == pytest.approx(2 * t(8), rel=0.15)

    def test_fails_when_fe_table_full(self):
        env = make_env(n_compute=12,
                       spec=ClusterSpec(n_compute=12, fe_max_user_procs=5))
        box = {}

        def s(env):
            box["r"] = yield from sequential_rsh_launch(
                env.cluster, env.cluster.compute)

        drive(env, s(env))
        assert box["r"].report.n_failed
        assert "process limit" in box["r"].report.failure
        assert box["r"].n_spawned == 5

    def test_without_holding_clients_no_limit(self):
        env = make_env(n_compute=12,
                       spec=ClusterSpec(n_compute=12, fe_max_user_procs=5))
        box = {}

        def s(env):
            box["r"] = yield from sequential_rsh_launch(
                env.cluster, env.cluster.compute, hold_clients=False)

        drive(env, s(env))
        assert not box["r"].report.n_failed
        assert box["r"].n_spawned == 12

    def test_fails_on_mpp(self):
        env = make_env(n_compute=4,
                       spec=ClusterSpec(n_compute=4, compute_rshd=False))
        box = {}

        def s(env):
            box["r"] = yield from sequential_rsh_launch(
                env.cluster, env.cluster.compute)

        drive(env, s(env))
        assert box["r"].report.n_failed
        assert "refused" in box["r"].report.failure


class TestTreeRsh:
    def test_spawns_all(self):
        env = make_env(n_compute=20)
        box = {}

        def s(env):
            box["r"] = yield from tree_rsh_launch(
                env.cluster, env.cluster.compute, fanout=4)

        drive(env, s(env))
        assert not box["r"].report.n_failed
        assert box["r"].n_spawned == 20

    def test_much_faster_than_sequential(self):
        n = 64
        times = {}
        for name, launcher in (("seq", sequential_rsh_launch),
                               ("tree", tree_rsh_launch)):
            env = make_env(n_compute=n)
            box = {}

            def s(env=env, box=box, launcher=launcher):
                box["r"] = yield from launcher(env.cluster,
                                               env.cluster.compute)

            drive(env, s())
            times[name] = box["r"].report.total
        assert times["seq"] > 10 * times["tree"]

    def test_depth_scaling(self):
        """Tree launch grows ~logarithmically, not linearly."""
        def t(n):
            env = make_env(n_compute=n)
            box = {}

            def s(env=env, box=box):
                box["r"] = yield from tree_rsh_launch(
                    env.cluster, env.cluster.compute, fanout=8)

            drive(env, s())
            return box["r"].report.total

        assert t(64) < 2.5 * t(8)


class TestAppScenarios:
    def test_nodes_needed_ceil(self):
        assert AppSpec("x", n_tasks=17, tasks_per_node=8).nodes_needed() == 3
        assert AppSpec("x", n_tasks=16, tasks_per_node=8).nodes_needed() == 2

    def test_uniform_behavior(self):
        b = uniform_behavior(stack=("a", "b"))
        assert b(0).call_stack == ("a", "b")
        assert b(999) == b(0)

    def test_hang_app_classes(self):
        app = make_hang_app(32, stuck_ranks=(5,), deadlocked_pair=True)
        stacks = {app.behavior(r).call_stack[-1] for r in range(32)}
        assert stacks == {"MPI_Barrier", "inner_loop", "MPI_Recv"}
        assert app.behavior(5).state is ProcState.RUNNING
        assert app.behavior(1).state is ProcState.SLEEPING

    def test_io_app_writer_pattern(self):
        app = make_io_heavy_app(16, tasks_per_node=8)
        assert app.behavior(0).state is ProcState.DISK_WAIT
        assert app.behavior(8).state is ProcState.DISK_WAIT
        assert app.behavior(1).state is ProcState.SLEEPING

    def test_apply_behavior_imprints_process(self, sim):
        from repro.cluster import Node
        from tests.conftest import run_gen
        node = Node(sim, "n0")
        proc = run_gen(sim, node.fork_exec("app"))
        app = make_compute_app(8)
        app.apply_behavior(proc, 3)
        assert proc.call_stack[-1] == "MPI_Waitall"
        assert proc.stats.utime > 100


class TestRunnerHarness:
    def test_drive_returns_value(self):
        env = make_env(n_compute=2)

        def g(env):
            yield env.sim.timeout(1)
            return "done"

        assert drive(env, g(env)) == "done"

    def test_drive_propagates_exception(self):
        env = make_env(n_compute=2)

        def g(env):
            yield env.sim.timeout(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            drive(env, g(env))

    def test_drive_until_unfinished_raises(self):
        env = make_env(n_compute=2)

        def g(env):
            yield env.sim.timeout(100)

        with pytest.raises(RuntimeError, match="did not finish"):
            drive(env, g(env), until=1.0)

    def test_make_env_rm_kwargs(self):
        from repro.rm import SlurmConfig
        env = make_env(n_compute=2, config=SlurmConfig(fanout=4))
        assert env.rm.config.fanout == 4

    def test_make_env_seed_determinism(self):
        def run():
            env = make_env(n_compute=4, seed=9)
            app = make_compute_app(16, tasks_per_node=8)

            def g(env):
                job = yield from env.rm.launch_job(app, env.rm.allocate(2))
                return env.sim.now

            return drive(env, g(env))

        assert run() == run()
