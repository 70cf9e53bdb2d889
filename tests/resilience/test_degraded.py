"""Session-level fault paths: DEGRADED state, reclaim, blacklisted nodes."""

import pytest

from repro.apps import make_compute_app
from repro.be import BackEnd
from repro.cluster import ClusterSpec, FaultPlan, NodeCrash
from repro.fe import SessionState, ToolFrontEnd
from repro.launch import LaunchPolicy
from repro.rm.base import DaemonSpec, RMError
from repro.runner import drive, make_env


def _daemon(ctx):
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()


POLICY = LaunchPolicy(per_daemon_timeout=10.0, max_retries=1,
                      retry_backoff=0.01, min_daemon_fraction=0.5,
                      handshake_timeout=30.0)


def _env(n=8, plan=None, policy=POLICY, **kw):
    return make_env(n_compute=n,
                    spec=ClusterSpec(n_compute=n, fault_plan=plan, seed=3),
                    policy=policy, **kw)


class TestDegradedSession:
    def test_degraded_then_detach_then_reattach(self):
        # node 5 crashes during the daemon spawn (the controller phase of
        # the first attach runs at ~5 ms; the crash at arm+5 ms lands
        # before its fork), so the first session comes up DEGRADED
        plan = FaultPlan(node_crashes=(NodeCrash(node=5, at=0.005),),
                         auto_arm=False)
        env = _env(plan=plan)
        app = make_compute_app(n_tasks=16, tasks_per_node=2)
        spec = DaemonSpec("toold", main=_daemon, image_mb=2.0)
        box = {}

        def scenario(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            job = yield from env.rm.launch_job(app, env.rm.allocate(8))
            env.cluster.faults.arm()
            first = fe.create_session()
            yield from fe.attach_and_spawn(first, job, spec)
            box["first_state"] = first.state
            box["first_report"] = first.launch_report
            # DEGRADED -> detach is legal (round-trip part 1)
            yield from fe.detach(first)
            box["after_detach"] = first.state
            # ...and the same job can be re-acquired (round-trip part 2):
            # the dead node is blacklisted, so its index is skipped
            second = fe.create_session()
            yield from fe.attach_and_spawn(second, job, spec)
            box["second_state"] = second.state
            box["second_report"] = second.launch_report
            yield from fe.detach(second)

        drive(env, scenario(env))
        first = box["first_report"]
        dead = env.cluster.compute[5].name
        assert box["first_state"] is SessionState.DEGRADED
        assert first.n_daemons == 7 and first.requested == 8
        assert first.blacklisted == [dead]
        assert box["after_detach"] is SessionState.DETACHED
        assert box["second_state"] is SessionState.DEGRADED
        # reattach skipped the condemned node without a spawn attempt
        second = box["second_report"]
        assert "skipped" in second.outcomes.values()
        assert second.n_daemons == 7

    def test_below_min_fraction_fails_and_reclaims(self):
        crashes = tuple(NodeCrash(node=i, at=0.005) for i in range(5))
        env = _env(plan=FaultPlan(node_crashes=crashes, auto_arm=False))
        app = make_compute_app(n_tasks=16, tasks_per_node=2)
        spec = DaemonSpec("toold", main=_daemon, image_mb=2.0)
        box = {}

        def scenario(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            alloc = env.rm.allocate(8)
            job = yield from env.rm.launch_job(app, alloc)
            env.cluster.faults.arm()  # 5 of 8 nodes die during the spawn
            session = fe.create_session()
            with pytest.raises(RMError, match="incomplete"):
                yield from fe.attach_and_spawn(session, job, spec)
            box["state"] = session.state
            env.rm.release(alloc)

        drive(env, scenario(env))
        assert box["state"] is SessionState.FAILED
        # the failed session stranded nothing: no daemons survive anywhere
        # and every surviving, non-condemned node is allocatable again
        for node in env.cluster.compute:
            assert not node.processes_of("toold")
        free = {n.name for n in env.rm.free_nodes()}
        survivors = {n.name for n in env.cluster.compute if not n.failed}
        assert free == survivors - set(env.rm.node_blacklist)

    def test_faultfree_policy_run_reaches_ready(self):
        env = _env()
        app = make_compute_app(n_tasks=16, tasks_per_node=2)
        spec = DaemonSpec("toold", main=_daemon, image_mb=2.0)
        box = {}

        def scenario(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            session = fe.create_session()
            yield from fe.launch_and_spawn(session, app, spec)
            box["state"] = session.state
            yield from fe.detach(session, reclaim_job=True)

        drive(env, scenario(env))
        assert box["state"] is SessionState.READY


class TestKilledDuringHandshake:
    def test_daemon_killed_mid_handshake_releases_its_node(self):
        env = _env(policy=LaunchPolicy(handshake_timeout=5.0))
        app = make_compute_app(n_tasks=16, tasks_per_node=2)

        def dying_daemon(ctx):
            be = BackEnd(ctx)
            if ctx.rank == 3:
                # the daemon dies before joining the init collectives:
                # without a handshake timeout the session would hang
                ctx.proc.exit(137)
                return
            yield from be.init()
            yield from be.ready()
            yield from be.finalize()

        spec = DaemonSpec("toold", main=dying_daemon, image_mb=2.0)
        box = {}

        def scenario(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            session = fe.create_session()
            try:
                yield from fe.launch_and_spawn(session, app, spec)
            except Exception as exc:
                box["error"] = str(exc)
            box["state"] = session.state

        drive(env, scenario(env))
        assert box["state"] is SessionState.FAILED
        assert "handshake" in box["error"]
        # the killed daemon's process-table slot was released at exit, and
        # the failed session reclaimed every node it held
        for node in env.cluster.compute:
            assert not node.processes_of("toold")
        assert len(env.rm.free_nodes()) == 8


class TestBlacklistAllocation:
    def test_blacklisted_node_never_reallocated(self):
        env = _env(policy=None)
        condemned = env.cluster.compute[2].name
        env.rm.node_blacklist.add(condemned)
        alloc = env.rm.allocate(6)
        assert condemned not in {n.name for n in alloc.nodes}
        env.rm.release(alloc)
        again = env.rm.allocate(7)  # all that remains without the outcast
        assert condemned not in {n.name for n in again.nodes}
        with pytest.raises(Exception):
            env.rm.allocate(8)  # the condemned node is simply not there

    def test_crashed_node_not_allocatable(self):
        env = _env(policy=None)
        env.cluster.compute[0].fail()
        assert len(env.rm.free_nodes()) == 7

    def test_launch_blacklist_sticks_for_later_allocations(self):
        # end-to-end: a launch condemns a node, the allocation layer then
        # refuses to hand it out for the rest of the session
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=0.005),),
                         auto_arm=False)
        env = _env(plan=plan)
        app = make_compute_app(n_tasks=8, tasks_per_node=2)
        spec = DaemonSpec("toold", main=_daemon, image_mb=2.0)

        def scenario(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            alloc = env.rm.allocate(4)
            job = yield from env.rm.launch_job(app, alloc)
            env.cluster.faults.arm()
            session = fe.create_session()
            yield from fe.attach_and_spawn(session, job, spec)
            assert session.state is SessionState.DEGRADED
            yield from fe.detach(session)
            env.rm.release(alloc)

        drive(env, scenario(env))
        dead = env.cluster.compute[1].name
        assert dead in env.rm.node_blacklist
        free = {n.name for n in env.rm.free_nodes()}
        assert dead not in free
        assert len(free) == 7
