"""Tests for Node: fork/exec, process table limits, rsh service."""

import pytest

from repro.cluster import Cluster, ClusterSpec, ForkError, Node, RemoteExecError
from repro.cluster.process import ProcState
from repro.simx import Simulator
from tests.conftest import run_gen


class TestForkExec:
    def test_fork_creates_live_process(self, sim):
        node = Node(sim, "n0")
        proc = run_gen(sim, node.fork_exec("daemon"))
        assert proc.alive
        assert proc.executable == "daemon"
        assert proc.pid in node.procs
        assert proc.host == "n0"

    def test_fork_costs_time(self, sim):
        node = Node(sim, "n0")
        run_gen(sim, node.fork_exec("daemon"))
        assert sim.now > 0.0

    def test_pids_unique_and_increasing(self, sim):
        node = Node(sim, "n0")
        p1 = run_gen(sim, node.fork_exec("a"))
        p2 = run_gen(sim, node.fork_exec("b"))
        assert p2.pid > p1.pid

    def test_fork_limit_raises_eagain(self, sim):
        node = Node(sim, "n0", max_user_procs=3)
        for _ in range(3):
            run_gen(sim, node.fork_exec("d"))
        with pytest.raises(ForkError, match="process limit"):
            run_gen(sim, node.fork_exec("d"))

    def test_fork_limit_is_per_uid(self, sim):
        node = Node(sim, "n0", max_user_procs=2)
        run_gen(sim, node.fork_exec("d", uid="alice"))
        run_gen(sim, node.fork_exec("d", uid="alice"))
        # bob still has room
        proc = run_gen(sim, node.fork_exec("d", uid="bob"))
        assert proc.alive

    def test_exit_frees_slot(self, sim):
        node = Node(sim, "n0", max_user_procs=1)
        p = run_gen(sim, node.fork_exec("d"))
        p.exit(0)
        assert node.user_proc_count() == 0
        p2 = run_gen(sim, node.fork_exec("d"))
        assert p2.alive

    def test_processes_of_prefix_filter(self, sim):
        node = Node(sim, "n0")
        run_gen(sim, node.fork_exec("statd"))
        run_gen(sim, node.fork_exec("statd"))
        run_gen(sim, node.fork_exec("app"))
        assert len(node.processes_of("statd")) == 2
        assert len(node.processes_of()) == 3


class TestProcessLifecycle:
    def test_exit_sets_code_and_event(self, sim):
        node = Node(sim, "n0")
        p = run_gen(sim, node.fork_exec("d"))
        p.exit(3)
        sim.run()
        assert p.exit_code == 3
        assert p.exit_event.value == 3
        assert not p.alive

    def test_double_exit_is_noop(self, sim):
        node = Node(sim, "n0")
        p = run_gen(sim, node.fork_exec("d"))
        p.exit(0)
        p.exit(1)
        sim.run()
        assert p.exit_code == 0

    def test_stop_resume_states(self, sim):
        node = Node(sim, "n0")
        p = run_gen(sim, node.fork_exec("d"))
        p.stop()
        assert p.state is ProcState.STOPPED
        p.resume()
        assert p.state is ProcState.RUNNING

    def test_wait_resumed_triggers_on_resume(self, sim):
        node = Node(sim, "n0")
        p = run_gen(sim, node.fork_exec("d"))
        p.stop()
        log = []

        def waiter(sim):
            yield p.wait_resumed()
            log.append(sim.now)

        def resumer(sim):
            yield sim.timeout(2)
            p.resume()

        sim.process(waiter(sim))
        sim.process(resumer(sim))
        sim.run()
        assert log and log[0] >= 2.0

    def test_wait_resumed_immediate_if_running(self, sim):
        node = Node(sim, "n0")
        p = run_gen(sim, node.fork_exec("d"))
        ev = p.wait_resumed()
        assert ev.triggered

    def test_account_cpu(self, sim):
        node = Node(sim, "n0")
        p = run_gen(sim, node.fork_exec("d"))
        p.account_cpu(user=1.5, system=0.25)
        assert p.stats.utime == 1.5
        assert p.stats.stime == 0.25


class TestRsh:
    def test_rsh_spawn_remote_process(self, sim):
        src = Node(sim, "fe")
        dst = Node(sim, "c0")
        client, remote = run_gen(sim, src.rsh_spawn(dst, "daemon"))
        assert remote.node is dst
        assert remote.alive
        assert client is not None and client.node is src

    def test_rsh_cost_dominated_by_connect(self, sim):
        src = Node(sim, "fe")
        dst = Node(sim, "c0")
        run_gen(sim, src.rsh_spawn(dst, "daemon"))
        # rsh_connect default is 0.225s; total must be in that ballpark
        assert 0.15 < sim.now < 0.35

    def test_rsh_refused_without_rshd(self, sim):
        src = Node(sim, "fe")
        dst = Node(sim, "c0", rshd_enabled=False)
        with pytest.raises(RemoteExecError, match="refused"):
            run_gen(sim, src.rsh_spawn(dst, "daemon"))

    def test_rsh_hold_client_pins_slot(self, sim):
        src = Node(sim, "fe", max_user_procs=2)
        d1 = Node(sim, "c0")
        d2 = Node(sim, "c1")
        run_gen(sim, src.rsh_spawn(d1, "daemon", hold_client=True))
        run_gen(sim, src.rsh_spawn(d2, "daemon", hold_client=True))
        assert src.user_proc_count() == 2
        d3 = Node(sim, "c2")
        with pytest.raises(ForkError):
            run_gen(sim, src.rsh_spawn(d3, "daemon", hold_client=True))

    def test_rsh_release_client(self, sim):
        src = Node(sim, "fe", max_user_procs=1)
        dst = Node(sim, "c0")
        client, _ = run_gen(sim, src.rsh_spawn(dst, "d", hold_client=False))
        assert client is None
        assert src.user_proc_count() == 0
