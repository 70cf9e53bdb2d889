"""Tests for the SLURM RM: allocation, job launch, daemon spawn, events."""

import pytest

from repro.apps import make_compute_app
from repro.be import BackEnd
from repro.cluster import Cluster, ClusterSpec
from repro.launch import LaunchPolicy
from repro.mpir import MPIR_DEBUG_STATE, MPIR_PROCTABLE, MPIR_PROCTABLE_SIZE
from repro.rm import DaemonSpec, JobState, RMError, SlurmConfig, SlurmRM
from repro.simx import Simulator
from tests.conftest import run_gen


@pytest.fixture
def cluster(sim):
    return Cluster(sim, ClusterSpec(n_compute=8, seed=2))


@pytest.fixture
def rm(cluster):
    return SlurmRM(cluster)


class TestAllocation:
    def test_allocate_grants_nodes(self, rm):
        alloc = rm.allocate(4)
        assert len(alloc) == 4
        assert len({n.name for n in alloc.nodes}) == 4

    def test_allocations_disjoint(self, rm):
        a1 = rm.allocate(3)
        a2 = rm.allocate(3)
        assert not ({n.name for n in a1.nodes} & {n.name for n in a2.nodes})

    def test_over_allocation_raises(self, rm):
        with pytest.raises(RMError, match="only"):
            rm.allocate(9)

    def test_release_returns_nodes(self, rm):
        a = rm.allocate(8)
        rm.release(a)
        assert len(rm.allocate(8)) == 8


class TestJobLaunch:
    def test_launch_creates_all_tasks(self, sim, rm):
        app = make_compute_app(n_tasks=32, tasks_per_node=8)
        alloc = rm.allocate(4)
        job = run_gen(sim, rm.launch_job(app, alloc))
        assert job.state is JobState.RUNNING
        assert len(job.tasks) == 32
        ranks = [t.memory["_rank"] for t in job.tasks]
        assert ranks == list(range(32))

    def test_tasks_block_placed(self, sim, rm):
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(2)))
        hosts = {t.memory["_rank"]: t.host for t in job.tasks}
        assert len({hosts[r] for r in range(8)}) == 1
        assert hosts[0] != hosts[8]

    def test_behavior_applied(self, sim, rm):
        app = make_compute_app(n_tasks=8)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(1)))
        t = job.tasks[0]
        assert t.call_stack[-1] == "MPI_Waitall"
        assert t.stats.utime > 0

    def test_mpir_published(self, sim, rm):
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(2)))
        mem = job.launcher.memory
        assert mem[MPIR_PROCTABLE_SIZE] == 16
        assert len(mem[MPIR_PROCTABLE]) == 16
        assert mem[MPIR_PROCTABLE][3].pid == job.tasks[3].pid

    def test_launcher_is_srun_on_fe(self, sim, rm, cluster):
        app = make_compute_app(n_tasks=8)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(1)))
        assert job.launcher.executable == "srun"
        assert job.launcher.node is cluster.front_end

    def test_launch_time_grows_with_nodes(self):
        def launch_time(n_nodes):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(n_compute=n_nodes, seed=2))
            rm = SlurmRM(cluster)
            app = make_compute_app(n_tasks=8 * n_nodes, tasks_per_node=8)
            run_gen(sim, rm.launch_job(app, rm.allocate(n_nodes)))
            return sim.now

        t4, t32 = launch_time(4), launch_time(32)
        assert t32 > t4
        # tree launch: far better than linear scaling per node
        assert t32 < t4 * 8


class TestDaemonSpawn:
    @staticmethod
    def trivial_daemon(ctx):
        ctx.tool_state["ran"] = True
        yield ctx.sim.timeout(0.001)

    @staticmethod
    def make_factory(collected):
        def factory(daemon, daemons, fabric):
            class Ctx:
                pass
            ctx = Ctx()
            ctx.sim = daemon.node.sim
            ctx.tool_state = {}
            ctx.rank = daemon.rank
            collected.append(ctx)
            return ctx
        return factory

    def test_one_daemon_per_job_node(self, sim, rm):
        app = make_compute_app(n_tasks=32, tasks_per_node=8)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(4)))
        ctxs = []
        spec = DaemonSpec("toold", main=self.trivial_daemon, image_mb=1.0)
        daemons, fabric = run_gen(
            sim, rm.spawn_daemons(job, spec, self.make_factory(ctxs)))
        assert len(daemons) == 4
        assert fabric.size == 4
        assert sorted(d.rank for d in daemons) == [0, 1, 2, 3]
        hosts = {d.node.name for d in daemons}
        assert hosts == {t.host for t in job.tasks}

    def test_daemon_bodies_run(self, sim, rm):
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(2)))
        ctxs = []
        spec = DaemonSpec("toold", main=self.trivial_daemon)
        run_gen(sim, rm.spawn_daemons(job, spec, self.make_factory(ctxs)))
        sim.run()
        assert all(c.tool_state.get("ran") for c in ctxs)

    def test_daemon_procs_on_nodes(self, sim, rm):
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(2)))
        spec = DaemonSpec("toold", main=self.trivial_daemon)
        daemons, _ = run_gen(
            sim, rm.spawn_daemons(job, spec, self.make_factory([])))
        for d in daemons:
            assert d.proc.executable == "toold"
            assert d.proc.node is d.node

    def test_spawn_into_pending_job_rejected(self, sim, rm):
        app = make_compute_app(n_tasks=8)
        job = run_gen(sim, rm.create_launcher(app, rm.allocate(1)))
        spec = DaemonSpec("toold", main=self.trivial_daemon)
        with pytest.raises(RMError, match="not launchable"):
            run_gen(sim, rm.spawn_daemons(job, spec, self.make_factory([])))

    def test_spawn_on_allocation_for_mw(self, sim, rm):
        spec = DaemonSpec("commd", main=self.trivial_daemon)
        alloc = rm.allocate(3)
        daemons, fabric, report = run_gen(
            sim, rm.spawn_on_allocation(alloc, spec, self.make_factory([])))
        assert len(daemons) == 3
        assert {d.node.name for d in daemons} == {n.name for n in alloc.nodes}
        assert report.n_daemons == 3

    def test_rejected_set_is_attributed_on_the_job(self, sim, cluster):
        # two of four daemon nodes are down: 2/4 up misses the policy's
        # 75% floor, so the set is rejected -- and the job still holds
        # the report that says which daemons failed
        rm = SlurmRM(cluster, policy=LaunchPolicy(
            max_retries=1, retry_backoff=0.01, min_daemon_fraction=0.75))
        app = make_compute_app(n_tasks=4, tasks_per_node=1)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(4)))
        for name in job.hosts[1::2]:
            cluster.node(name).fail()
        spec = DaemonSpec("toold", main=self.trivial_daemon)
        with pytest.raises(RMError, match="daemon set incomplete"):
            run_gen(sim, rm.spawn_daemons(job, spec, self.make_factory([])))
        report = job.daemon_spawn_report
        assert report is not None
        assert sorted(report.failed_indices()) == [1, 3]
        assert report.requested == 4


class TestJobRecord:
    @staticmethod
    def waiting_daemon(ctx):
        yield ctx.sim.event()  # runs until ended

    @pytest.mark.parametrize("tasks_per_node", [1, 4])
    def test_hosts_are_distinct_in_first_task_order(self, sim, rm,
                                                    tasks_per_node):
        app = make_compute_app(n_tasks=4 * tasks_per_node,
                               tasks_per_node=tasks_per_node)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(4)))
        first_seen = []
        for t in job.tasks:
            if t.host not in first_seen:
                first_seen.append(t.host)
        assert job.hosts == first_seen
        assert len(job.hosts) == 4
        assert job.hosts == job.build_proctable().hosts

    def test_end_ends_tasks_then_daemons_then_launcher(self, sim, rm):
        app = make_compute_app(n_tasks=8, tasks_per_node=4)
        job = run_gen(sim, rm.launch_job(app, rm.allocate(2)))
        spec = DaemonSpec("toold", main=self.waiting_daemon)
        run_gen(sim, rm.spawn_daemons(
            job, spec, TestDaemonSpawn.make_factory([])))
        procs = [*job.tasks, *(d.proc for d in job.daemons), job.launcher]
        assert len(procs) == 8 + 2 + 1 and all(p.alive for p in procs)
        order = []
        for p in procs:
            p.exit_event.callbacks.append(lambda ev, p=p: order.append(p))
        assert job.end(3) == len(procs)
        sim.run()
        assert order == procs
        assert all(not p.alive and p.exit_code == 3 for p in procs)
        assert job.state is JobState.COMPLETED
        assert job.end(3) == 0


class TestDebugEvents:
    def test_well_designed_event_count_is_scale_independent(self):
        """The paper: SLURM has no events that grow with scale (post-fix)."""
        def count_events(n_nodes):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(n_compute=n_nodes, seed=2))
            rm = SlurmRM(cluster)
            app = make_compute_app(n_tasks=8 * n_nodes, tasks_per_node=8)
            job = run_gen(sim, rm.create_launcher(app, rm.allocate(n_nodes)))
            # attach a fake tracer that just counts and resumes
            from repro.mpir import TracedProcess
            tr = TracedProcess(job.launcher)
            run_gen(sim, tr.attach())
            run_gen(sim, tr.write_symbol("MPIR_being_debugged", 1))
            counted = []

            def pump(sim):
                sim.process(rm.run_launcher(job))
                yield from tr.cont()
                while True:
                    ev = yield from tr.wait_event()
                    counted.append(ev)
                    if ev.detail == "MPIR_Breakpoint":
                        break
                    yield from tr.cont()

            run_gen(sim, pump(sim))
            return len(counted)

        assert count_events(2) == count_events(8)

    def test_legacy_mode_events_grow_with_tasks(self):
        def count_events(n_nodes):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(n_compute=n_nodes, seed=2))
            rm = SlurmRM(cluster, config=SlurmConfig(legacy_events=True))
            app = make_compute_app(n_tasks=8 * n_nodes, tasks_per_node=8)
            job = run_gen(sim, rm.create_launcher(app, rm.allocate(n_nodes)))
            from repro.mpir import TracedProcess
            tr = TracedProcess(job.launcher)
            run_gen(sim, tr.attach())
            run_gen(sim, tr.write_symbol("MPIR_being_debugged", 1))
            counted = []

            def pump(sim):
                sim.process(rm.run_launcher(job))
                yield from tr.cont()
                while True:
                    ev = yield from tr.wait_event()
                    counted.append(ev)
                    if ev.detail == "MPIR_Breakpoint":
                        break
                    yield from tr.cont()

            run_gen(sim, pump(sim))
            return len(counted)

        assert count_events(8) - count_events(2) == 48  # 64-16 extra tasks
