"""The non-blocking session-handle API and the multi-tenant ToolService."""

import pytest

from repro.apps import make_compute_app
from repro.be import BackEnd
from repro.fe import (
    FrontEndError,
    SessionState,
    ToolFrontEnd,
    ToolService,
)
from repro.mw import Middleware
from repro.rm import AllocationError, DaemonSpec
from repro.runner import drive, drive_many, make_env, make_service_env


def _daemon(ctx):
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()


def _mw_daemon(ctx):
    mw = Middleware(ctx)
    yield from mw.init()
    yield from mw.ready()
    yield from mw.finalize()


SPEC = DaemonSpec("svcd", main=_daemon, image_mb=1.0)
MW_SPEC = DaemonSpec("mwd", main=_mw_daemon, image_mb=1.0)


def _detach_body(fe, session):
    yield from fe.detach(session, reclaim_job=True)
    return session.id


def _app(nodes=4, tpn=2):
    return make_compute_app(n_tasks=nodes * tpn, tasks_per_node=tpn)


class TestSessionHandle:
    def test_result_before_done_raises(self):
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC)
        assert not h.done
        with pytest.raises(FrontEndError, match="in flight"):
            h.result()

    def test_handle_completes_and_returns_session(self):
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC)
        drive(env, env.service.drain())
        assert h.done
        assert h.exception is None
        assert h.result() is h.session
        assert h.session.state is SessionState.READY

    def test_wait_from_another_process(self):
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC, body=_detach_body)
        got = {}

        def waiter(env):
            session = yield from h.wait()
            got["session"] = session
            got["at"] = env.sim.now

        drive(env, waiter(env))
        assert got["session"] is h.session
        assert got["at"] == pytest.approx(h.finished_at)

    def test_wait_after_done_returns_immediately(self):
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC)
        drive(env, env.service.drain())

        def late_waiter(env):
            session = yield from h.wait()
            return session

        assert drive(env, late_waiter(env)) is h.session

    def test_status_callbacks_fire_for_every_transition(self):
        env = make_service_env(n_compute=4)
        seen = []
        h = env.service.submit_launch(_app(), SPEC, body=_detach_body)
        h.register_status_cb(lambda s, old, new: seen.append((old, new)))
        drive(env, env.service.drain())
        assert seen == [
            (SessionState.CREATED, SessionState.QUEUED),
            (SessionState.QUEUED, SessionState.SPAWNING),
            (SessionState.SPAWNING, SessionState.READY),
            (SessionState.READY, SessionState.DETACHED),
        ]
        # the handle's own recorder saw the same transitions with times
        assert [(o, n) for _, o, n in h.transitions] == seen
        assert h.state_times[SessionState.READY] <= \
            h.state_times[SessionState.DETACHED]

    def test_latency_decomposition_consistent(self):
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC, body=_detach_body)
        drive(env, env.service.drain())
        assert h.queue_wait == 0.0
        assert h.alloc_wait == 0.0
        assert h.launch_latency > 0
        assert h.launch_latency <= h.finished_at - h.submitted_at

    def test_failure_surfaces_via_result_not_crash(self):
        env = make_service_env(n_compute=4)
        # 8 nodes can never be granted on a 4-node cluster: AllocationError.
        # The op fails, but the sim run itself must survive so other
        # tenants are unaffected.
        bad = env.service.submit_launch(_app(nodes=8), SPEC)
        good = env.service.submit_launch(_app(nodes=2), SPEC,
                                         body=_detach_body)
        env.sim.run()
        assert bad.done
        assert isinstance(bad.exception, AllocationError)
        with pytest.raises(AllocationError):
            bad.result()
        assert good.done and good.exception is None

    def test_drain_reraises_failures(self):
        env = make_service_env(n_compute=4)
        env.service.submit_launch(_app(nodes=8), SPEC)
        with pytest.raises(AllocationError):
            drive(env, env.service.drain())


class TestFailureCleanup:
    def test_failing_body_releases_nodes_for_queued_tenants(self):
        """A tenant whose body crashes must not strand its allocation."""
        env = make_service_env(n_compute=4)  # one session's worth of nodes

        def bad_body(fe, session):
            raise RuntimeError("tenant tool crashed")
            yield  # pragma: no cover

        bad = env.service.submit_launch(_app(), SPEC, tool_name="bad",
                                        body=bad_body)
        queued = [env.service.submit_launch(_app(), SPEC, tool_name=f"q{i}",
                                            body=_detach_body)
                  for i in range(2)]
        env.sim.run()
        assert isinstance(bad.exception, RuntimeError)
        # the abandoned session died visibly, in a terminal state
        assert bad.session.state is SessionState.FAILED
        # the crashed tenant's nodes were returned; both queued sessions ran
        for h in queued:
            assert h.done and h.exception is None
            assert h.session.state is SessionState.DETACHED
        assert len(env.rm.free_nodes()) == 4

    def test_simultaneous_spawn_failures_do_not_crash_the_sim(self):
        """Two spawn workers failing at the same virtual instant must both
        be defused -- the failure surfaces via the handle, and co-tenants
        keep running."""
        from repro.cluster import ClusterSpec, ForkError
        env = make_service_env(
            n_compute=2,
            spec=ClusterSpec(n_compute=2, compute_max_user_procs=1, seed=1))
        # image_mb=0 skips the FS stage, so both daemon forks fail at the
        # same instant (each node's single process slot is taken by a task)
        app = make_compute_app(n_tasks=2, tasks_per_node=1)
        spec0 = DaemonSpec("zeroimg", main=_daemon, image_mb=0.0)
        h = env.service.submit_launch(app, spec0, tool_name="t")
        env.sim.run()  # must not raise
        assert isinstance(h.exception, ForkError)
        assert h.session.state is SessionState.FAILED
        assert len(env.rm.free_nodes()) == 2

    @pytest.mark.parametrize("fe_quota", [0, 1])
    def test_fe_init_failure_does_not_hang_peer_ops(self, fe_quota):
        """If a shared FE-side fork fails, waiting ops fail too -- loudly.

        quota 0 makes ``fe.init()`` itself fail (the _ensure_init path);
        quota 1 lets init succeed but fails the shared engine fork (the
        _obtain_engine_proc path). Either way no operation may hang.
        """
        from repro.cluster import ClusterSpec, ForkError
        env = make_service_env(
            n_compute=4,
            spec=ClusterSpec(n_compute=4, fe_max_user_procs=fe_quota,
                             seed=1))
        h1 = env.service.submit_launch(_app(), SPEC, tool_name="t")
        h2 = env.service.submit_launch(_app(), SPEC, tool_name="t")
        env.sim.run()
        assert h1.done and h2.done
        assert isinstance(h1.exception, ForkError)
        assert isinstance(h2.exception, ForkError)
        # no nodes stranded by the failed launches
        assert len(env.rm.free_nodes()) == 4

    def test_mw_failure_keeps_be_nodes_held(self):
        """A failed chained MW op must not release the live session's BE
        allocation -- that would double-book nodes daemons still occupy."""
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(nodes=2), SPEC)
        # impossible MW request: fails with AllocationError after launch
        mw = env.service.submit_mw(
            h, MW_SPEC, n_nodes=8)
        env.sim.run()
        assert h.done and h.exception is None
        assert isinstance(mw.exception, AllocationError)
        # session still READY and still holding its 2 BE nodes
        assert h.session.state is SessionState.READY
        assert len(h.session.owned_allocs) == 1
        assert len(env.rm.free_nodes()) == 2

    def test_partial_launch_failure_retires_engine_job(self):
        """A launch failing mid-engine (daemon fork) must retire the job
        it already started, not just free its nodes."""
        from repro.cluster import ClusterSpec, ForkError
        # 2 tasks + 1 daemon per node, but room for only 2 processes:
        # spawn_daemons hits ForkError after the job's tasks are running
        env = make_service_env(
            n_compute=2,
            spec=ClusterSpec(n_compute=2, compute_max_user_procs=2, seed=1))
        h = env.service.submit_launch(_app(nodes=2), SPEC)
        env.sim.run()
        assert isinstance(h.exception, ForkError)
        assert len(env.rm.free_nodes()) == 2
        # the partially launched job was bound back and retired: no live
        # tasks squatting on the freed nodes
        assert h.session.job is not None
        assert not any(t.alive for t in h.session.job.tasks)
        # no orphan daemons or transient spawn launcher either
        for node in env.cluster.compute:
            assert node.processes_of("svcd") == []
        # the session died visibly: terminal FAILED state via callbacks
        assert h.session.state is SessionState.FAILED
        assert h.transitions[-1][2] is SessionState.FAILED
        # the shared filesystem was not wedged by the aborted spawn
        # (interrupted loaders must return their server slot): a smaller
        # follow-up launch that fits the quota completes normally
        app2 = make_compute_app(n_tasks=2, tasks_per_node=1)
        h2 = env.service.submit_launch(app2, SPEC, body=_detach_body)
        env.sim.run()
        assert h2.done and h2.exception is None
        assert env.cluster.fs._servers.in_use == 0

    def test_concurrent_sessions_share_one_engine_process(self):
        """Same-tenant concurrent ops must not double-fork the engine."""
        env = make_service_env(n_compute=8)
        handles = [env.service.submit_launch(_app(), SPEC, tool_name="same",
                                             body=_detach_body)
                   for i in range(2)]
        drive(env, env.service.drain())
        assert all(h.exception is None for h in handles)
        engines = {h.session.engine.proc for h in handles}
        assert len(engines) == 1
        fe_node = env.cluster.front_end
        assert len(fe_node.processes_of("launchmon-engine")) == 1


class TestToolService:
    def test_eight_concurrent_sessions_complete(self):
        env = make_service_env(n_compute=32)
        handles = [env.service.submit_launch(_app(), SPEC,
                                             tool_name=f"u{i}",
                                             body=_detach_body)
                   for i in range(8)]
        sessions = drive(env, env.service.drain())
        assert len(sessions) == 8
        assert all(h.done and h.exception is None for h in handles)
        assert all(h.session.state is SessionState.DETACHED for h in handles)
        assert env.service.peak_in_flight == 8

    def test_deterministic_across_runs(self):
        def wave():
            env = make_service_env(n_compute=8)
            handles = [env.service.submit_launch(_app(), SPEC,
                                                 tool_name=f"u{i}",
                                                 body=_detach_body)
                       for i in range(6)]
            drive(env, env.service.drain())
            return [(h.launch_latency, h.alloc_wait, h.finished_at)
                    for h in handles]

        assert wave() == wave()

    def test_max_in_flight_caps_concurrency(self):
        env = make_service_env(n_compute=32, max_in_flight=2)
        handles = [env.service.submit_launch(_app(), SPEC,
                                             tool_name=f"u{i}",
                                             body=_detach_body)
                   for i in range(6)]
        drive(env, env.service.drain())
        assert env.service.peak_in_flight == 2
        # later submissions pay admission wait even though nodes are free
        assert handles[-1].queue_wait > 0
        assert env.rm.alloc_queue_peak <= 2

    def test_node_contention_queues_fifo(self):
        env = make_service_env(n_compute=4)  # one session's worth of nodes
        handles = [env.service.submit_launch(_app(), SPEC,
                                             tool_name=f"u{i}",
                                             body=_detach_body)
                   for i in range(3)]
        drive(env, env.service.drain())
        # FIFO by *arrival* at the queue (per-tenant init jitter decides
        # who gets there first): the first arrival waits zero, later
        # arrivals wait strictly longer, in arrival order
        by_arrival = sorted(handles,
                            key=lambda h: h.state_times[SessionState.QUEUED])
        waits = [h.alloc_wait for h in by_arrival]
        assert waits[0] == 0.0
        assert 0 < waits[1] < waits[2]
        assert env.rm.alloc_queue_peak == 2
        assert len(env.rm.alloc_waits) == 3

    def test_one_frontend_per_tenant_with_engine_reuse(self):
        env = make_service_env(n_compute=8)
        h1 = env.service.submit_launch(_app(), SPEC, tool_name="same",
                                       body=_detach_body)
        drive(env, env.service.drain())
        h2 = env.service.submit_launch(_app(), SPEC, tool_name="same",
                                       body=_detach_body)
        drive(env, env.service.drain())
        assert h1.fe is h2.fe
        assert len(env.service.frontends) == 1
        # the engine process survived session 1's detach and was reused
        assert h1.session.engine.proc is h2.session.engine.proc
        assert h2.session.engine.proc.alive

    def test_submit_mw_chains_after_launch(self):
        env = make_service_env(n_compute=8)
        h = env.service.submit_launch(_app(nodes=4), SPEC)
        mw = env.service.submit_mw(h, MW_SPEC, n_nodes=2)
        drive(env, env.service.drain())
        assert mw.done and mw.exception is None
        assert h.session.state is SessionState.MW_READY
        assert len(h.session.mw_daemons) == 2

    def test_mw_handle_reports_its_own_metrics_not_the_parents(self):
        """A chained MW handle shares the session but must not echo the
        parent launch's alloc_wait/launch_latency."""
        env = make_service_env(n_compute=6)
        h = env.service.submit_launch(_app(nodes=4), SPEC)
        mw = env.service.submit_mw(h, MW_SPEC, n_nodes=2)
        drive(env, env.service.drain())
        assert mw.exception is None
        # launch_latency is a launch/attach metric; an MW handle has none
        assert mw.launch_latency is None
        assert h.launch_latency is not None
        # the MW op's own QUEUED wait, measured over its *own* transitions
        # (the parent's QUEUED interval happened before mw.started_at)
        assert mw.started_at >= h.finished_at
        assert mw.alloc_wait == 0.0
        # service latency summary counts each launch exactly once
        assert len(env.service.summary()["launch_latencies"]) == 1

    def test_chained_mw_does_not_hold_admission_slot_while_waiting(self):
        """A submit_mw waiting on its parent must not occupy gate capacity
        that an independent launch could use."""
        env = make_service_env(n_compute=8, max_in_flight=1)
        l1 = env.service.submit_launch(_app(nodes=2), SPEC, tool_name="a")
        mw1 = env.service.submit_mw(l1, MW_SPEC, n_nodes=2)
        l2 = env.service.submit_launch(_app(nodes=2), SPEC, tool_name="b")
        drive(env, env.service.drain())
        assert all(h.exception is None for h in (l1, mw1, l2))
        # l2 was admitted while mw1 idled on its parent, not behind it
        assert l2.started_at <= mw1.started_at

    def test_parent_handle_metrics_not_polluted_by_chained_mw(self):
        """The parent handle stops recording at op completion, so a later
        MW op's QUEUED wait is never misattributed to it."""
        env = make_service_env(n_compute=6)
        app = _app(nodes=4)
        box = {}

        def scenario(env):
            job = yield from env.rm.launch_job(app, env.rm.allocate(4))
            h = env.service.submit_attach(job, SPEC)
            box["h"] = h
            yield from h.wait()
            box["mw"] = env.service.submit_mw(
                h, MW_SPEC, n_nodes=2)

        drive(env, scenario(env))
        drive(env, env.service.drain())
        h, mw = box["h"], box["mw"]
        assert mw.exception is None
        # attach never queues for nodes; the MW op's QUEUED transition
        # must not leak into the attach handle's metrics
        assert h.alloc_wait is None
        assert SessionState.QUEUED not in dict(
            (new, t) for t, _old, new in h.transitions)

    def test_submit_attach(self):
        env = make_service_env(n_compute=4)
        app = _app()
        box = {}

        def starter(env):
            job = yield from env.rm.launch_job(app, env.rm.allocate(4))
            box["h"] = env.service.submit_attach(job, SPEC,
                                                 body=_detach_body)

        drive(env, starter(env))
        drive(env, env.service.drain())
        h = box["h"]
        assert h.done and h.exception is None
        assert len(h.session.rpdtab) == app.n_tasks


class TestReclaimSemantics:
    def test_plain_detach_leaves_job_running_and_nodes_held(self):
        """Classic LaunchMON semantics: the job outlives the tool."""
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC)
        drive(env, env.service.drain())
        box = {}

        def finish(env):
            yield from h.fe.detach(h.session)
            box["free"] = len(env.rm.free_nodes())

        drive(env, finish(env))
        from repro.rm import JobState
        assert h.session.job.state is JobState.RUNNING
        assert any(t.alive for t in h.session.job.tasks)
        assert box["free"] == 0  # the running job still occupies its nodes

    def test_reclaiming_detach_retires_job_before_freeing_nodes(self):
        """Freed nodes must not still host the prior tenant's live tasks."""
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC)
        drive(env, env.service.drain())

        def finish(env):
            yield from h.fe.detach(h.session, reclaim_job=True)

        drive(env, finish(env))
        from repro.rm import JobState
        assert h.session.job.state is JobState.COMPLETED
        assert not any(t.alive for t in h.session.job.tasks)
        assert len(env.rm.free_nodes()) == 4

    def test_attached_job_never_reclaimed(self):
        """reclaim only ends jobs the session launched itself."""
        env = make_service_env(n_compute=4)
        app = _app()
        box = {}

        def scenario(env):
            job = yield from env.rm.launch_job(app, env.rm.allocate(4))
            box["job"] = job
            h = env.service.submit_attach(job, SPEC)
            yield from h.wait()
            yield from h.fe.detach(h.session, reclaim_job=True)

        drive(env, scenario(env))
        from repro.rm import JobState
        assert box["job"].state is JobState.RUNNING
        assert all(t.alive for t in box["job"].tasks)

    def test_body_crash_after_clean_detach_respects_terminal_state(self):
        """A body that detached (classic semantics) before raising keeps
        its DETACHED state and its deliberately-running job."""
        from repro.rm import JobState
        env = make_service_env(n_compute=4)

        def detach_then_crash(fe, session):
            yield from fe.detach(session)  # classic: job keeps running
            raise RuntimeError("post-detach assertion failed")

        h = env.service.submit_launch(_app(), SPEC, body=detach_then_crash)
        env.sim.run()
        assert isinstance(h.exception, RuntimeError)
        assert h.session.state is SessionState.DETACHED  # not resurrected
        assert h.session.job.state is JobState.RUNNING   # job untouched
        assert len(env.rm.free_nodes()) == 0             # nodes still held

    def test_repeat_mw_launch_replaces_current_set_and_reclaims_all(self):
        """mw_daemons means the *current* set; reclaim ends every set."""
        env = make_service_env(n_compute=8)
        h = env.service.submit_launch(_app(nodes=2), SPEC)
        m1 = env.service.submit_mw(h, MW_SPEC, n_nodes=2)
        m2 = env.service.submit_mw(m1, MW_SPEC, n_nodes=3)
        drive(env, env.service.drain())
        assert m2.exception is None
        assert len(h.session.mw_daemons) == 3       # latest set only
        assert len(h.session.all_mw_daemons) == 5   # both sets tracked

        def finish(env):
            yield from h.fe.detach(h.session, reclaim_job=True)

        drive(env, finish(env))
        assert len(env.rm.free_nodes()) == 8
        for d in h.session.all_mw_daemons:
            assert not d.proc.alive

    def test_cancel_unblocks_a_queued_launch(self):
        """handle.cancel() is the escape hatch for a launch stuck in the
        allocation queue (kill() needs an engine, which does not exist
        yet); the queue entry is withdrawn and later tenants proceed."""
        from repro.simx import Interrupt
        env = make_service_env(n_compute=8)
        h1 = env.service.submit_launch(_app(nodes=8), SPEC, tool_name="a",
                                       body=_detach_body)
        h2 = env.service.submit_launch(_app(nodes=8), SPEC, tool_name="b")
        h3 = env.service.submit_launch(_app(nodes=8), SPEC, tool_name="c",
                                       body=_detach_body)

        def canceller(env):
            yield env.sim.timeout(0.05)  # h2 is QUEUED behind h1 by now
            assert h2.cancel("user gave up")

        env.sim.process(canceller(env))
        env.sim.run()
        assert isinstance(h2.exception, Interrupt)
        assert h2.session.state is SessionState.FAILED
        # the tenants around the cancelled one are unaffected
        assert h1.exception is None and h3.exception is None
        assert env.rm.queued_requests == 0
        assert len(env.rm.free_nodes()) == 8

    def test_stall_cancel_recover_workflow_end_to_end(self):
        """The documented recovery path actually works: drive() stalls
        with a starvation hint, cancel() the stuck handle, drain again
        cleanly, then free the nodes -- no stale failure detonates."""
        from repro.simx import Interrupt
        env = make_service_env(n_compute=8)
        a = env.service.submit_launch(_app(nodes=8), SPEC, tool_name="a")
        b = env.service.submit_launch(_app(nodes=8), SPEC, tool_name="b")
        with pytest.raises(RuntimeError, match="node starvation"):
            drive(env, env.service.drain())
        # whichever tenant's init arrived second is the queued one
        stuck, won = (a, b) if not a.done else (b, a)
        assert stuck.cancel()
        sessions = drive(env, env.service.drain())  # must not raise
        assert [s.id for s in sessions] == [won.session.id]
        assert won.exception is None
        assert isinstance(stuck.exception, Interrupt)
        assert stuck.session.state is SessionState.FAILED

        def detacher(env):
            yield from won.fe.detach(won.session, reclaim_job=True)

        drive(env, detacher(env))  # unharmed by the abandoned first drain
        assert len(env.rm.free_nodes()) == 8
        # cancellation is accounted as such, not as a failure
        summary = env.service.summary()
        assert summary["failed"] == 0
        assert summary["cancelled"] == 1
        # and pruning drops the completed history
        assert len(env.service.prune_handles()) == 2
        assert env.service.handles == []

    def test_cancel_after_done_returns_false(self):
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC)
        drive(env, env.service.drain())
        assert h.cancel() is False
        assert h.exception is None

    def test_kill_reclaims_daemons_and_nodes(self):
        """Killed sessions leave genuinely empty nodes: daemons exited,
        allocation back in the free pool."""
        env = make_service_env(n_compute=4)
        h = env.service.submit_launch(_app(), SPEC)
        drive(env, env.service.drain())

        def finish(env):
            yield from h.fe.kill(h.session)

        drive(env, finish(env))
        assert h.session.state is SessionState.KILLED
        assert not any(d.proc.alive for d in h.session.daemons)
        assert len(env.rm.free_nodes()) == 4

    def test_gate_queued_op_blocks_tenant_retirement(self):
        """An op waiting at the admission gate counts as tenant activity:
        its FE must not be retired out from under it."""
        env = make_service_env(n_compute=8, max_in_flight=1)
        env.service.keep_warm = 0  # retire aggressively
        handles = [env.service.submit_launch(_app(nodes=2), SPEC,
                                             tool_name="same",
                                             body=_detach_body)
                   for _ in range(2)]
        drive(env, env.service.drain())
        assert all(h.exception is None for h in handles)
        # with keep_warm=0 and no pending work, everything was retired:
        # no leaked FE or engine processes on the front-end node
        fe_node = env.cluster.front_end
        assert fe_node.processes_of("launchmon-engine") == []
        assert fe_node.processes_of("same-fe") == []
        assert env.service.frontends == {}

    def test_retirement_evicts_longest_idle_tenant_first(self):
        """LRU eviction: the tenant idle longest loses its warm processes;
        the most recently active one keeps them."""
        env = make_service_env(n_compute=8)
        env.service.keep_warm = 1
        h_old = env.service.submit_launch(_app(nodes=2), SPEC,
                                          tool_name="old",
                                          body=_detach_body)
        drive(env, env.service.drain())
        h_new = env.service.submit_launch(_app(nodes=2), SPEC,
                                          tool_name="new",
                                          body=_detach_body)
        drive(env, env.service.drain())
        assert h_old.exception is None and h_new.exception is None
        # 'old' went idle first, so it was evicted; 'new' stays warm
        assert set(env.service.frontends) == {"new"}
        fe_node = env.cluster.front_end
        assert fe_node.processes_of("old-fe") == []
        assert len(fe_node.processes_of("new-fe")) == 1

    def test_tenant_churn_does_not_exhaust_fe_process_table(self):
        """Hundreds of distinct tenants must not pin FE processes forever."""
        env = make_service_env(n_compute=4, max_in_flight=4)
        env.service.keep_warm = 8
        handles = [env.service.submit_launch(_app(nodes=2), SPEC,
                                             tool_name=f"tenant{i}",
                                             body=_detach_body)
                   for i in range(250)]  # > fe_max_user_procs / 2
        drive(env, env.service.drain())
        assert all(h.exception is None for h in handles)
        fe_node = env.cluster.front_end
        # bounded by 2 x (keep_warm idle + max_in_flight busy) FE+engine
        # pairs, plus transient launcher processes
        assert fe_node.user_proc_count() <= 2 * (8 + 4) + 4
        assert len(env.service.frontends) <= 8 + 4
        # and an explicit shutdown retires the rest
        env.service.shutdown_idle()
        assert len(env.service.frontends) == 0

    def test_live_session_blocks_tenant_retirement(self):
        """A READY session keeps its FE + engine alive through retirement
        sweeps; once it ends, the tenant becomes retirable."""
        env = make_service_env(n_compute=8)
        env.service.keep_warm = 0  # retire as aggressively as possible
        h = env.service.submit_launch(_app(nodes=4), SPEC, tool_name="u")
        mw = env.service.submit_mw(h, MW_SPEC, n_nodes=2)
        drive(env, env.service.drain())
        assert mw.exception is None
        # the session is READY/MW_READY: its engine must have survived
        assert h.session.engine.proc.alive
        assert "u" in env.service.frontends

        def finish(env):
            yield from h.fe.detach(h.session, reclaim_job=True)

        drive(env, finish(env))
        assert env.service.shutdown_idle() == 1
        fe_node = env.cluster.front_end
        assert fe_node.processes_of("u-fe") == []
        assert fe_node.processes_of("launchmon-engine") == []

    def test_concurrent_mw_on_one_session_are_serialized(self):
        """Two submit_mw ops chained on one parent must not race the
        session's state machine -- both succeed, in order."""
        env = make_service_env(n_compute=16)
        h = env.service.submit_launch(_app(nodes=2), SPEC)
        m1 = env.service.submit_mw(h, MW_SPEC, n_nodes=2)
        m2 = env.service.submit_mw(h, MW_SPEC, n_nodes=2)  # same parent!
        drive(env, env.service.drain())
        assert m1.exception is None
        assert m2.exception is None
        assert m2.started_at >= m1.finished_at
        assert h.session.state is SessionState.MW_READY
        assert len(h.session.all_mw_daemons) == 4

    def test_failed_second_mw_launch_spares_first_mw_set(self):
        """A failing repeat launch_mw_daemons must not destroy the healthy
        MW set from the first call."""
        env = make_service_env(n_compute=8)
        h = env.service.submit_launch(_app(nodes=4), SPEC)
        env.service.submit_mw(h, MW_SPEC, n_nodes=2)
        drive(env, env.service.drain())
        first_set = list(h.session.mw_daemons)
        assert len(first_set) == 2
        # impossible second MW request fails after the first succeeded
        bad = env.service.submit_mw(h, MW_SPEC, n_nodes=16)
        env.sim.run()
        assert isinstance(bad.exception, AllocationError)
        assert h.session.mw_daemons == first_set
        assert h.session.mw_fabric is not None
        assert h.session.state is SessionState.MW_READY


class TestDriveMany:
    def test_blocking_api_multi_tenant_via_drive_many(self):
        env = make_env(n_compute=8)
        results = {}

        def tenant(env, name):
            fe = ToolFrontEnd(env.cluster, env.rm, name)
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(s, _app(), SPEC)
            yield from fe.detach(s, reclaim_job=True)
            results[name] = s.state
            return name

        names = [f"t{i}" for i in range(3)]
        values = drive_many(env, [tenant(env, n) for n in names])
        assert values == names
        assert all(results[n] is SessionState.DETACHED for n in names)

    def test_unfinished_driver_raises(self):
        env = make_env(n_compute=4)

        def stuck(env):
            yield env.sim.event()  # never triggers

        with pytest.raises(RuntimeError, match="did not finish"):
            drive_many(env, [stuck(env)])

    def test_node_starvation_is_diagnosed(self):
        """A driver stuck in the allocation queue gets a useful error,
        not just the generic 'did not finish'."""
        env = make_env(n_compute=4)
        env.rm.allocate(3)  # held forever, never released

        def tenant(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "starved")
            yield from fe.init()
            s = fe.create_session()
            yield from fe.launch_and_spawn(s, _app(nodes=2), SPEC)

        with pytest.raises(RuntimeError, match="node starvation"):
            drive(env, tenant(env))


class TestLegacyApiUnchanged:
    def test_blocking_launch_still_single_drive(self):
        """The classic quickstart flow, byte-for-byte the old API."""
        env = make_env(n_compute=4)
        app = _app()
        out = {}

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "legacy")
            yield from fe.init()
            session = fe.create_session()
            yield from fe.launch_and_spawn(session, app, SPEC)
            out["session"] = session
            yield from fe.detach(session)

        drive(env, tool(env))
        assert out["session"].state is SessionState.DETACHED
        assert out["session"].n_daemons == 4

    def test_legacy_detach_retires_engine_process(self):
        """Seed semantics: without reuse_engine, detach exits the engine
        process rather than keeping it warm."""
        env = make_env(n_compute=4)

        def tool(env):
            fe = ToolFrontEnd(env.cluster, env.rm, "legacy")
            yield from fe.init()
            session = fe.create_session()
            yield from fe.launch_and_spawn(session, _app(), SPEC)
            yield from fe.detach(session)

        drive(env, tool(env))
        fe_node = env.cluster.front_end
        assert fe_node.processes_of("launchmon-engine") == []
