"""Fault-injection unit tests: injector, node failure, resilient strategies."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultStats,
    FsStall,
    LinkFlap,
    NodeCrash,
    NodeDown,
    Straggler,
)
from repro.launch import LaunchPolicy, LaunchRequest, get_strategy
from repro.simx import SeededRNG, Simulator
from tests.conftest import run_gen


def _cluster(sim, n=8, plan=None, **spec_kw):
    return Cluster(sim, ClusterSpec(n_compute=n, fault_plan=plan, seed=3,
                                    **spec_kw))


def _request(cluster, nodes, **kw):
    kw.setdefault("executable", "toold")
    return LaunchRequest(cluster=cluster, nodes=nodes, **kw)


class TestNodeFailure:
    def test_fail_kills_procs_and_releases_slots(self, sim):
        cluster = _cluster(sim)
        node = cluster.compute[0]
        procs = [run_gen(sim, node.fork_exec("d", uid="u")) for _ in range(3)]
        assert node.user_proc_count("u") == 3
        killed, _ = node.fail("test crash")
        assert killed == 3
        assert node.user_proc_count("u") == 0
        assert all(p.exit_code == 137 for p in procs)

    def test_fork_on_dead_node_raises(self, sim):
        cluster = _cluster(sim)
        node = cluster.compute[1]
        node.fail()
        with pytest.raises(NodeDown):
            run_gen(sim, node.fork_exec("d"))

    def test_rsh_to_dead_node_raises(self, sim):
        cluster = _cluster(sim)
        cluster.compute[2].fail()
        with pytest.raises(NodeDown):
            run_gen(sim, cluster.front_end.rsh_spawn(
                cluster.compute[2], "d"))

    def test_fail_interrupts_resident_bodies(self, sim):
        cluster = _cluster(sim)
        node = cluster.compute[0]

        def body():
            yield sim.timeout(1000)

        proc = sim.process(body(), name="resident")
        node.register_body(proc)
        _, interrupted = node.fail()
        sim.run()
        assert interrupted == 1
        assert not proc.is_alive

    def test_fail_is_idempotent(self, sim):
        node = _cluster(sim).compute[0]
        node.fail()
        assert node.fail() == (0, 0)


class TestFaultInjector:
    def test_no_plan_gives_an_inert_injector(self, sim, monkeypatch):
        seeded = []
        seed = SeededRNG._seeded
        monkeypatch.setattr(SeededRNG, "_seeded",
                            lambda rng: seeded.append(rng.path) or seed(rng))
        cluster = _cluster(sim)
        faults = cluster.faults
        assert faults.plan == FaultPlan() and faults.armed
        # an image read through the shared FS, then an rsh launch
        run_gen(sim, cluster.fs.load_image(1.0))
        res = run_gen(sim, get_strategy("serial-rsh").launch(
            _request(cluster, cluster.compute)))
        sim.run()
        assert res.report.n_failed == 0
        assert not any(node.failed for node in cluster.nodes)
        assert faults.stats == FaultStats()
        assert faults.log == []
        assert seeded and "faults" not in seeded

    def test_scheduled_crash_fires(self, sim):
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=2.0),))
        cluster = _cluster(sim, plan=plan)
        sim.run(until=1.0)
        assert not cluster.compute[1].failed
        sim.run(until=3.0)
        assert cluster.compute[1].failed
        assert cluster.faults.stats.crashes == 1
        assert cluster.faults.log

    def test_random_crashes_are_seed_stable(self):
        def victims(seed):
            sim = Simulator()
            plan = FaultPlan(crash_rate=0.3, crash_window=(0.0, 1.0))
            cluster = Cluster(sim, ClusterSpec(
                n_compute=16, fault_plan=plan, seed=seed))
            sim.run(until=2.0)
            return [n.name for n in cluster.compute if n.failed]

        assert victims(7) == victims(7)
        assert victims(7) != victims(8)  # different seed, different victims

    def test_arm_is_explicit_when_auto_arm_off(self, sim):
        plan = FaultPlan(node_crashes=(NodeCrash(node=0, at=0.0),),
                         auto_arm=False)
        cluster = _cluster(sim, plan=plan)
        sim.run(until=1.0)
        assert not cluster.compute[0].failed
        cluster.faults.arm()
        sim.run(until=2.0)
        assert cluster.compute[0].failed

    def test_straggler_slows_fork(self):
        def fork_time(factor):
            sim = Simulator()
            plan = (FaultPlan(stragglers=(Straggler(node=0, factor=factor),))
                    if factor != 1.0 else None)
            cluster = Cluster(sim, ClusterSpec(
                n_compute=2, fault_plan=plan, seed=3))
            run_gen(sim, cluster.compute[0].fork_exec("d"))
            return sim.now

        assert fork_time(10.0) == pytest.approx(10.0 * fork_time(1.0))

    def test_fs_stall_delays_reads(self, sim):
        plan = FaultPlan(fs_stalls=(FsStall(at=0.0, duration=3.0),))
        cluster = _cluster(sim, plan=plan)
        run_gen(sim, cluster.fs.load_image(1.0))
        assert sim.now >= 3.0  # the read waited out the stall window
        assert cluster.faults.stats.fs_stalled_loads == 1
        assert cluster.faults.stats.fs_stall_time >= 3.0


class TestResilientSerialRsh:
    def test_continues_past_dead_node_and_attributes(self, sim):
        cluster = _cluster(sim)
        cluster.compute[3].fail()
        res = run_gen(sim, get_strategy("serial-rsh").launch(_request(
            cluster, cluster.compute,
            policy=LaunchPolicy(max_retries=1, retry_backoff=0.01),
            blacklist=set())))
        report = res.report
        assert res.n_spawned == 7
        assert report.outcomes[3] == "failed"
        assert report.n_failed == 1
        assert report.retries[3] == 1  # one bounded retry before giving up
        assert report.blacklisted == [cluster.compute[3].name]
        assert 3 not in res.slots
        assert sorted(report.outcomes) == list(range(8))

    def test_blacklisted_node_skipped_without_attempt(self, sim):
        cluster = _cluster(sim)
        condemned = {cluster.compute[2].name}
        res = run_gen(sim, get_strategy("serial-rsh").launch(_request(
            cluster, cluster.compute, blacklist=condemned)))
        assert res.report.outcomes[2] == "skipped"
        assert res.n_spawned == 7
        # no processes were ever created on the condemned node
        assert not cluster.compute[2].procs

    def test_transient_link_fault_retried_to_success(self, sim):
        plan = FaultPlan(link_flaps=(LinkFlap(rate=1.0, window=(0.0, 0.4)),))
        cluster = _cluster(sim, n=4, plan=plan)
        res = run_gen(sim, get_strategy("serial-rsh").launch(_request(
            cluster, cluster.compute,
            policy=LaunchPolicy(max_retries=6, retry_backoff=0.2))))
        assert res.n_spawned == 4  # everything recovered after the window
        assert res.report.n_retried > 0
        assert cluster.faults.stats.rsh_faults > 0
        assert res.report.n_failed == 0

    def test_source_side_failure_does_not_blacklist_targets(self):
        # the FE's own process table fills (hold_clients pins one slot per
        # daemon): the failures are the *source's*, so the healthy target
        # nodes must not be condemned on the blacklist
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(n_compute=8, seed=3,
                                           fe_max_user_procs=4))
        condemned: set = set()
        res = run_gen(sim, get_strategy("serial-rsh").launch(_request(
            cluster, cluster.compute, hold_clients=True,
            policy=LaunchPolicy(max_retries=1, retry_backoff=0.01),
            blacklist=condemned)))
        assert 0 < res.n_spawned < 8  # the table did fill mid-launch
        assert res.report.n_failed > 0
        assert condemned == set()  # no healthy target condemned
        assert res.report.blacklisted == []

    def test_timed_out_attempts_leak_no_rsh_clients(self):
        # a straggler target makes every attempt overrun the per-daemon
        # timeout; each interrupted attempt must tear down the rsh client
        # it already forked, or the source's process table fills up
        sim = Simulator()
        plan = FaultPlan(stragglers=(Straggler(node=0, factor=1.0e5),))
        cluster = Cluster(sim, ClusterSpec(n_compute=2, fault_plan=plan,
                                           seed=3))
        res = run_gen(sim, get_strategy("serial-rsh").launch(_request(
            cluster, cluster.compute,
            policy=LaunchPolicy(per_daemon_timeout=0.5, max_retries=2,
                                retry_backoff=0.01),
            blacklist=set())))
        assert res.report.outcomes[0] == "failed"
        assert res.report.retries[0] == 2
        assert res.n_spawned == 1
        # 3 timed-out attempts, 0 leaked clients on the front end
        assert cluster.front_end.user_proc_count("user") == 0

    def test_per_daemon_timeout_fires_on_fs_stall(self, sim):
        plan = FaultPlan(fs_stalls=(FsStall(at=0.0, duration=1.2),))
        cluster = _cluster(sim, n=2, plan=plan)
        res = run_gen(sim, get_strategy("serial-rsh").launch(_request(
            cluster, cluster.compute, stage_images=True, image_mb=4.0,
            policy=LaunchPolicy(per_daemon_timeout=0.5, max_retries=3,
                                retry_backoff=1.0))))
        assert res.n_spawned == 2  # retried past the stall window
        assert res.report.n_retried >= 1


class TestResilientTreeRsh:
    def test_reroots_failed_subtree_at_origin(self, sim):
        cluster = _cluster(sim, n=16)
        # node 0 heads the first fan-out slice; killing it orphans its
        # whole subtree unless the strategy re-roots it
        cluster.compute[0].fail()
        res = run_gen(sim, get_strategy("tree-rsh").launch(_request(
            cluster, cluster.compute, fanout=2,
            policy=LaunchPolicy(max_retries=1, retry_backoff=0.01),
            blacklist=set())))
        report = res.report
        assert res.n_spawned == 15
        assert report.outcomes[0] == "failed"
        assert all(report.outcomes[i] == "ok" for i in range(1, 16))
        assert report.blacklisted == [cluster.compute[0].name]

    def test_legacy_contract_unchanged(self, sim):
        cluster = _cluster(sim, n=16)
        cluster.compute[0].fail()
        res = run_gen(sim, get_strategy("tree-rsh").launch(_request(
            cluster, cluster.compute, fanout=2)))
        # no policy: the first failure ends the launch
        assert res.report.outcomes[0] == "failed"
        assert res.n_spawned < 15

    def test_raise_stops_sibling_subtrees(self, sim):
        cluster = _cluster(sim, n=16)
        cluster.compute[0].fail()
        res = run_gen(sim, get_strategy("tree-rsh").launch(_request(
            cluster, cluster.compute, fanout=2)))
        assert "no route to host" in res.report.failure  # the NodeDown
        assert res.report.outcomes == {0: "failed"}  # nothing else tried
        assert res.n_spawned == 0
        sim.run()  # drain anything still pending after the stop
        # no sibling subtree starts a spawn once the failure is recorded
        assert sum(n.user_proc_count("user") for n in cluster.compute) == 0


class TestResilientRmBulk:
    def test_partial_set_with_slots(self, sim):
        cluster = _cluster(sim)
        cluster.compute[1].fail()
        cluster.compute[5].fail()
        res = run_gen(sim, get_strategy("rm-bulk").launch(_request(
            cluster, cluster.compute, stage_images=True, image_mb=2.0,
            policy=LaunchPolicy(max_retries=1, retry_backoff=0.01),
            blacklist=set())))
        assert res.n_spawned == 6
        assert sorted(res.report.failed_indices()) == [1, 5]
        assert set(res.slots) == {0, 2, 3, 4, 6, 7}
        assert len(res.report.blacklisted) == 2

    def test_legacy_all_or_nothing_unchanged(self, sim):
        cluster = _cluster(sim)
        cluster.compute[1].fail()
        with pytest.raises(NodeDown):
            run_gen(sim, get_strategy("rm-bulk").launch(_request(
                cluster, cluster.compute)))

    def test_raise_aborts_the_set_like_stop(self, sim):
        # serialized image loads: nodes 0-6 fork before the last node,
        # crashed early, fails its own fork
        plan = FaultPlan(node_crashes=(NodeCrash(node=7, at=0.01),))
        cluster = _cluster(sim, plan=plan)
        with pytest.raises(NodeDown):
            run_gen(sim, get_strategy("rm-bulk").launch(_request(
                cluster, cluster.compute, stage_images=True, image_mb=2.0)))
        assert cluster.compute[0].max_uid_procs_seen == 1
        # the daemons already forked were reaped
        assert all(n.user_proc_count("user") == 0 for n in cluster.compute)


class TestBitIdentity:
    """No FaultPlan (or an empty one) must not perturb timing at all."""

    @pytest.mark.parametrize("strategy", ["serial-rsh", "tree-rsh",
                                          "rm-bulk"])
    def test_empty_plan_is_bit_identical(self, strategy):
        def total(plan):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(
                n_compute=12, fault_plan=plan, seed=5))
            res = run_gen(sim, get_strategy(strategy).launch(LaunchRequest(
                cluster=cluster, nodes=cluster.compute,
                executable="toold", stage_images=True, image_mb=6.0)))
            return res.report.total

        assert total(None) == total(FaultPlan())

    @pytest.mark.parametrize("strategy", ["serial-rsh", "tree-rsh"])
    def test_resilient_knobs_do_not_change_faultfree_timing(self, strategy):
        def total(**knobs):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(n_compute=12, seed=5))
            res = run_gen(sim, get_strategy(strategy).launch(LaunchRequest(
                cluster=cluster, nodes=cluster.compute,
                executable="toold", stage_images=True, image_mb=6.0,
                **knobs)))
            return res.report.total

        assert total() == total(
            policy=LaunchPolicy(per_daemon_timeout=30.0, max_retries=2),
            blacklist=set())
