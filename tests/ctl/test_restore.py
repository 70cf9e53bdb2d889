"""Restore semantics: adopt / resubmit / reap -- never relaunch."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec
from repro.ctl import CTL_STREAM_ID, ControlPlane
from repro.fe.session import SessionState
from repro.runner import make_env

from tests.ctl.conftest import run_gen


def _small_env(n_compute=12, seed=3, max_in_flight=3):
    env = make_env(n_compute=n_compute,
                   spec=ClusterSpec(n_compute=n_compute, seed=seed),
                   seed=seed)
    control = ControlPlane(env.cluster, env.rm, max_in_flight=max_in_flight)
    return env, control


def test_restart_adopts_ready_trees_without_relaunch(ctl_env):
    env, control = ctl_env
    control.cmd_start()
    ids = [control.launch("generic-be", 3) for _ in range(2)]
    for ctl_id in ids:
        run_gen(env, control.wait(ctl_id))
    gen1 = control.daemon
    pre = {}
    for ctl_id in ids:
        job = gen1.get(ctl_id).session.job
        pre[ctl_id] = (job, [d.proc for d in job.daemons])

    run_gen(env, control.cmd_stop(drain=True))  # graceful: trees left running
    for ctl_id, (job, procs) in pre.items():
        assert all(p.alive for p in procs), "trees must survive the stop"

    st = control.cmd_start()
    assert st["generation"] == 2
    daemon = control.daemon
    report = daemon.restore_report
    assert report.adopted == 2
    assert report.relaunched == 0
    assert report.resubmitted == 0
    for ctl_id, (job, procs) in pre.items():
        cs = daemon.get(ctl_id)
        assert cs.adopted
        # the *same* RM job and the *same* daemon processes: adopted,
        # not relaunched
        assert cs.session.job is job
        assert [d.proc for d in cs.session.job.daemons] == procs
        assert all(p.alive for p in procs)
        assert cs.session.state is SessionState.READY
        # the proctable was rebuilt from the still-running task set
        assert len(cs.session.rpdtab) == job.app.n_tasks

    # adopted sessions tear down cleanly through the new generation
    for ctl_id in ids:
        assert run_gen(env, control.end(ctl_id)) is True
    assert not env.rm.live_allocations


def test_adopted_overlay_serves_the_same_stream(ctl_env):
    env, control = ctl_env
    control.cmd_start()
    ctl_id = control.launch("overlay", 3, waves=2)
    run_gen(env, control.wait(ctl_id))
    stream_before = control.open_stream(ctl_id, stream_id=CTL_STREAM_ID)

    run_gen(env, control.cmd_stop(drain=True))
    control.cmd_start()
    cs = control.daemon.get(ctl_id)
    assert cs.adopted and cs.session.overlay is not None

    # data-plane continuity: the adopted session hands back the *same*
    # persistent stream object, and waves published by the (still
    # running) daemons before the restart are deliverable after it
    stream = control.open_stream(ctl_id, stream_id=CTL_STREAM_ID)
    assert stream is stream_before

    def read_waves():
        got = []
        for _ in range(2):
            pkt = yield from stream.next_wave()
            got.append(pkt.wave)
        return got

    waves = run_gen(env, read_waves())
    assert waves == [0, 1]
    assert run_gen(env, control.end(ctl_id)) is True


def test_queued_work_is_resubmitted_under_same_ctl_id():
    # 4 nodes, gate of 1: the second launch is still CREATED (waiting
    # for admission) when the daemon stops hard
    env, control = _small_env(n_compute=4, max_in_flight=1)
    sim = env.sim
    control.cmd_start()
    id1 = control.launch("generic-be", 3)
    id2 = control.launch("generic-be", 3)
    run_gen(env, control.wait(id1))
    assert control.info(id2)["state"] in ("created", "queued")

    control.crash()
    sim.run(until=sim.now + 0.1)
    control.cmd_start()
    daemon = control.daemon
    report = daemon.restore_report
    assert report.resubmitted == 1
    cs2 = daemon.get(id2)
    assert cs2.resubmitted and not cs2.adopted
    assert cs2.ctl_id == id2  # the client's ticket survived the restart
    # id1's tree was adopted; once it ends, id2's resubmission launches
    assert daemon.get(id1).adopted
    assert run_gen(env, control.end(id1)) is True
    run_gen(env, control.wait(id2))
    assert control.info(id2)["state"] == "ready"
    assert run_gen(env, control.end(id2)) is True
    assert not env.rm.allocated_node_names


def test_spawning_session_is_reaped_not_adopted():
    env, control = _small_env(n_compute=8)
    sim = env.sim
    control.cmd_start()
    ctl_id = control.launch("generic-be", 3)
    # step in small increments until the launch is mid-spawn
    while control.info(ctl_id)["state"] != "spawning":
        sim.run(until=sim.now + 0.005)
    control.crash()
    sim.run(until=sim.now + 0.2)

    control.cmd_start()
    report = control.daemon.restore_report
    assert report.adopted == 0
    assert report.reaped_sessions == 1
    assert ctl_id not in control.daemon.sessions  # nothing to resume
    # the aborted spawn left no nodes behind
    assert not env.rm.live_allocations
    assert not env.rm.allocated_node_names
    assert len(env.rm.free_nodes()) == 8


def test_orphan_grant_to_dead_waiter_is_swept():
    """Crash with one launch mid-spawn and one queued at the RM: the
    abort of the first *releases* nodes, which the RM grants to the
    frozen second waiter -- an allocation owned by no one. The restore's
    ledger sweep must reap it."""
    env, control = _small_env(n_compute=4, max_in_flight=3)
    sim = env.sim
    control.cmd_start()
    id1 = control.launch("generic-be", 3)
    while control.info(id1)["state"] != "spawning":
        sim.run(until=sim.now + 0.005)
    id2 = control.launch("generic-be", 3)
    sim.run(until=sim.now + 0.01)
    assert control.info(id2)["state"] == "queued"  # in the RM's FIFO line
    assert env.rm.queued_requests == 1

    control.crash()  # id1 aborts (releases nodes); id2's waiter is frozen
    sim.run(until=sim.now + 0.2)
    # the release pumped the queue: the dead waiter got nodes
    assert env.rm.live_allocations, "expected an orphan grant"

    control.cmd_start()
    report = control.daemon.restore_report
    assert report.orphan_allocs_reaped == 1
    assert report.queue_entries_withdrawn == 0  # consumed by the grant
    assert report.resubmitted == 1  # id2 rides again under its own id
    run_gen(env, control.wait(id2))
    assert control.info(id2)["state"] == "ready"
    assert run_gen(env, control.end(id2)) is True
    assert not env.rm.allocated_node_names
    assert len(env.rm.free_nodes()) == 4


def test_blacklist_survives_restart(ctl_env):
    env, control = ctl_env
    control.cmd_start()
    env.rm.node_blacklist.add("atlas0003")
    ctl_id = control.launch("generic-be", 2)
    run_gen(env, control.wait(ctl_id))
    run_gen(env, control.cmd_stop(drain=True))

    env.rm.node_blacklist.clear()  # simulate RM-side amnesia
    control.cmd_start()
    assert "atlas0003" in env.rm.node_blacklist
    assert control.daemon.restore_report.blacklist_applied == 1


def test_cold_start_has_no_restore_report(ctl_env):
    env, control = ctl_env
    control.cmd_start()
    assert control.daemon.restore_report is None
