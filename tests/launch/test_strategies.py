"""Tests for the unified launch strategy layer and image staging modes."""

import pytest

from repro.cluster import Cluster, ClusterSpec, ForkError, RemoteExecError
from repro.launch import (
    LaunchReport,
    LaunchRequest,
    PHASES,
    get_strategy,
    strategy_names,
)
from repro.rm.base import DaemonSpec
from repro.runner import drive, make_env
from repro.simx import Simulator
from tests.conftest import run_gen


def _request(cluster, nodes, **kw):
    kw.setdefault("executable", "toold")
    return LaunchRequest(cluster=cluster, nodes=nodes, **kw)


class TestRegistry:
    def test_names(self):
        assert strategy_names() == ("rm-bulk", "serial-rsh", "tree-rsh")

    def test_lookup(self):
        for name in strategy_names():
            assert get_strategy(name).name == name

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown launch strategy"):
            get_strategy("teleport")


class TestSerialRsh:
    def test_spawns_and_reports(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=6, seed=2))
        res = run_gen(sim, get_strategy("serial-rsh").launch(
            _request(cluster, cluster.compute)))
        assert res.n_spawned == 6
        assert res.report.n_failed == 0
        assert res.report.n_daemons == 6
        assert res.report.requested == 6
        assert res.report.total > 6 * 0.2  # sequential rsh slope
        assert res.report.t_spawn == pytest.approx(res.report.total)

    def test_per_index_hooks(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=3, seed=2))
        seen = []

        def post(i, node, proc):
            seen.append((i, node.name, proc.args))

        res = run_gen(sim, get_strategy("serial-rsh").launch(_request(
            cluster, cluster.compute,
            args_for=lambda i, node: (f"idx={i}",),
            post_spawn=post)))
        assert [p.args for p in res.procs] == [
            ("idx=0",), ("idx=1",), ("idx=2",)]
        assert [i for i, _, _ in seen] == [0, 1, 2]

    def test_failure_recorded_not_raised(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=8, seed=2,
                                           fe_max_user_procs=4))
        res = run_gen(sim, get_strategy("serial-rsh").launch(
            _request(cluster, cluster.compute, hold_clients=True)))
        assert res.report.n_failed == 1  # stops at the first failure
        assert "process limit" in res.report.failure
        assert 0 < res.n_spawned < 8

    def test_on_failure_raise_propagates(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=8, seed=2,
                                           fe_max_user_procs=4))
        with pytest.raises(ForkError):
            run_gen(sim, get_strategy("serial-rsh").launch(_request(
                cluster, cluster.compute, hold_clients=True,
                on_failure="raise")))

    def test_unknown_on_failure_rejected(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=2, seed=2))
        with pytest.raises(ValueError, match="on_failure"):
            _request(cluster, cluster.compute, on_failure="ignore")


class TestTreeRsh:
    def test_spawns_all_logarithmically(self):
        def elapsed(n):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(n_compute=n, seed=2))
            res = run_gen(sim, get_strategy("tree-rsh").launch(
                _request(cluster, cluster.compute, fanout=8)))
            assert res.n_spawned == n
            return res.report.total

        assert elapsed(64) < 2.5 * elapsed(8)

    def test_failure_recorded(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=4, seed=2,
                                           compute_rshd=False))
        res = run_gen(sim, get_strategy("tree-rsh").launch(
            _request(cluster, cluster.compute)))
        assert res.report.n_failed
        assert "refused" in res.report.failure

    def test_on_failure_raise_propagates(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=4, seed=2,
                                           compute_rshd=False))
        with pytest.raises(RemoteExecError):
            run_gen(sim, get_strategy("tree-rsh").launch(_request(
                cluster, cluster.compute, on_failure="raise")))

    def test_per_index_hooks_see_request_order(self, sim):
        """args_for/post_spawn receive each node's index in req.nodes even
        though the tree spawns out of order."""
        cluster = Cluster(sim, ClusterSpec(n_compute=12, seed=2))
        seen = {}

        def post(i, node, proc):
            seen[i] = node.name

        res = run_gen(sim, get_strategy("tree-rsh").launch(_request(
            cluster, cluster.compute, fanout=3,
            args_for=lambda i, node: (f"idx={i}",),
            post_spawn=post)))
        assert sorted(seen) == list(range(12))
        assert seen == {i: n.name for i, n in enumerate(cluster.compute)}
        assert {p.args[0] for p in res.procs} == {
            f"idx={i}" for i in range(12)}


class TestRmBulk:
    def test_parallel_forks(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=32, seed=2))
        res = run_gen(sim, get_strategy("rm-bulk").launch(
            _request(cluster, cluster.compute, image_mb=0.0)))
        assert res.n_spawned == 32
        # parallel forks: far below 32 sequential fork costs
        assert res.report.total < 32 * cluster.costs.fork_exec

    def test_image_stage_attribution(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=16, seed=2))
        res = run_gen(sim, get_strategy("rm-bulk").launch(_request(
            cluster, cluster.compute, image_mb=15.0, stage_images=True)))
        rep = res.report
        # serialized shared-FS loads dominate and are attributed to staging
        assert rep.t_image_stage > 10 * rep.t_spawn
        assert rep.dominant_phase() == "t_image_stage"
        assert rep.t_spawn + rep.t_image_stage == pytest.approx(rep.total)

    def test_rm_records_last_launch_report(self):
        env = make_env(n_compute=4)
        spec = DaemonSpec("toold", main=_noop_daemon, image_mb=2.0)

        def factory(d, ds, fab):
            class Ctx:
                pass
            return Ctx()

        def scenario(env):
            alloc = env.rm.allocate(4)
            yield from env.rm.spawn_on_allocation(alloc, spec, factory)

        drive(env, scenario(env))
        rep = env.rm.last_launch_report
        assert isinstance(rep, LaunchReport)
        assert rep.mechanism == "rm-bulk(slurm)"
        assert rep.n_daemons == 4
        assert rep.staging_mode == "shared-fs"
        assert rep.t_spawn > 0  # includes the RM protocol overhead


class TestStagingModes:
    def _launch(self, staging, n=32, warm_pass=False):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(n_compute=n, seed=2,
                                           staging_mode=staging))
        strat = get_strategy("rm-bulk")

        def scenario():
            first = yield from strat.launch(_request(
                cluster, cluster.compute, image_mb=15.0, stage_images=True))
            for p in first.procs:
                p.exit(0)
            second = yield from strat.launch(_request(
                cluster, cluster.compute, image_mb=15.0, stage_images=True))
            return first.report, second.report

        cold, warm = run_gen(sim, scenario())
        return warm if warm_pass else cold

    def test_broadcast_beats_shared_fs_cold(self):
        sf = self._launch("shared-fs")
        bc = self._launch("broadcast")
        assert bc.total < sf.total
        # the win is the image-stage phase, not the spawn phase
        assert bc.t_image_stage < 0.5 * sf.t_image_stage
        assert bc.t_spawn == pytest.approx(sf.t_spawn, rel=0.25)

    def test_cache_cold_matches_shared_fs(self):
        sf = self._launch("shared-fs")
        ca = self._launch("cache")
        assert ca.total == pytest.approx(sf.total, rel=0.05)

    def test_cache_warm_relaunch_skips_fs(self):
        cold = self._launch("cache")
        warm = self._launch("cache", warm_pass=True)
        assert warm.total < 0.2 * cold.total
        assert warm.t_image_stage < 0.1 * cold.t_image_stage

    def test_shared_fs_warm_relaunch_pays_again(self):
        cold = self._launch("shared-fs")
        warm = self._launch("shared-fs", warm_pass=True)
        assert warm.total == pytest.approx(cold.total, rel=0.1)

    def test_broadcast_scales_logarithmically(self):
        t64 = self._launch("broadcast", n=64).t_image_stage
        t512 = self._launch("broadcast", n=512).t_image_stage
        sf64 = self._launch("shared-fs", n=64).t_image_stage
        sf512 = self._launch("shared-fs", n=512).t_image_stage
        assert sf512 == pytest.approx(8 * sf64, rel=0.2)  # linear term
        assert t512 < 2.5 * t64                           # ~log term


class TestReport:
    def test_phase_listing(self):
        rep = LaunchReport("m", n_daemons=1, t_spawn=1.0, t_connect=2.0)
        assert tuple(rep.phases()) == PHASES
        assert rep.dominant_phase() == "t_connect"

    def test_as_dict_carries_staging(self):
        rep = LaunchReport("m", n_daemons=1, staging_mode="broadcast")
        d = rep.as_dict()
        assert d["staging_mode"] == "broadcast"
        assert d["t_image_stage"] == 0.0


class TestSessionPlumbing:
    def test_session_and_handle_expose_launch_report(self):
        from repro.apps import make_compute_app
        from repro.runner import make_service_env

        env = make_service_env(n_compute=4)
        app = make_compute_app(n_tasks=16, tasks_per_node=8)
        spec = DaemonSpec("toold", main=_be_daemon, image_mb=2.0)
        handle = env.service.submit_launch(app, spec, tool_name="t1")
        drive(env, env.service.drain())
        rep = handle.launch_report
        assert isinstance(rep, LaunchReport)
        assert rep.mechanism == "rm-bulk(slurm)"
        assert rep.n_daemons == handle.session.n_daemons
        assert handle.session.launch_report is rep


def _noop_daemon(ctx):
    return
    yield  # pragma: no cover


def _be_daemon(ctx):
    from repro.be import BackEnd

    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()
