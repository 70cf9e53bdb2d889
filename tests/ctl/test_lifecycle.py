"""Daemon lifecycle: idempotent start, status, reload, drain, stop."""

from __future__ import annotations

import pytest

from repro.ctl import (CtlError, CtlUnavailable, DaemonState,
                       UnknownToolError, decode_checkpoint)
from repro.fe.session import SessionState

from tests.ctl.conftest import run_gen


def test_start_is_idempotent(ctl_env):
    env, control, client = ctl_env
    st1 = client.start()
    assert st1["started"] and not st1["already_running"]
    assert st1["generation"] == 1
    # a second start reports the live instance, it does not spawn a rival
    st2 = client.start()
    assert not st2["started"] and st2["already_running"]
    assert st2["generation"] == 1
    assert control.generation == 1
    assert control.daemon.state is DaemonState.RUNNING


def test_status_probes_without_booting(ctl_env):
    env, control, client = ctl_env
    st = client.status()
    assert st["state"] == "stopped"
    assert not st["has_checkpoint"]
    assert control.daemon is None  # the probe must not have started one
    client.start()
    assert client.status()["state"] == "running"


def test_submit_refused_while_down(ctl_env):
    env, control, client = ctl_env
    with pytest.raises(CtlUnavailable):
        client.launch("generic-be", 2)


def test_unknown_tool_is_an_error(ctl_env):
    env, control, client = ctl_env
    client.start()
    with pytest.raises(UnknownToolError):
        client.launch("no-such-recipe", 2)


def test_launch_and_wait(ctl_env):
    env, control, client = ctl_env
    client.start()
    ctl_id = client.launch("generic-be", 3)
    state = run_gen(env, client.wait(ctl_id))
    assert state == "ready"
    info = client.info(ctl_id)
    assert info["tool"] == "generic-be" and not info["adopted"]


def test_reload_resizes_admission_gate_live(ctl_env):
    env, control, client = ctl_env
    client.start()
    daemon = control.daemon
    daemon.service.set_max_in_flight(1)
    ids = [client.launch("generic-be", 2) for _ in range(3)]
    env.sim.run(until=0.01)
    # gate of 1: exactly one admitted, two waiting
    assert daemon.service.pending_admissions == 2
    st = client.reload(max_in_flight=3)
    assert st["max_in_flight"] == 3
    assert control.max_in_flight == 3  # config-of-record for restarts
    env.sim.run()
    for ctl_id in ids:
        assert client.info(ctl_id)["state"] == "ready"
    # the reloaded value is what the checkpoint now records
    cp = decode_checkpoint(control.store.read())
    assert cp.max_in_flight == 3


def test_drain_refuses_new_work_and_completes(ctl_env):
    env, control, client = ctl_env
    sim = env.sim
    client.start()
    ids = [client.launch("generic-be", 2) for _ in range(2)]

    def scenario():
        stop_proc = control.stop_async(drain=True)
        yield sim.timeout(0.001)
        assert control.daemon.state is DaemonState.DRAINING
        # draining daemon refuses admissions...
        with pytest.raises(CtlUnavailable):
            client.launch("generic-be", 2)
        # ...but already-admitted work runs to completion
        yield stop_proc

    run_gen(env, scenario())
    daemon = control.daemon
    assert daemon.state is DaemonState.STOPPED
    for ctl_id in ids:
        assert daemon.get(ctl_id).session.state is SessionState.READY
    # the final checkpoint describes the left-behind trees
    cp = decode_checkpoint(control.store.read())
    assert sorted(r.ctl_id for r in cp.sessions) == sorted(ids)
    assert all(r.state == "ready" for r in cp.sessions)


def test_hard_stop_cancels_in_flight_work(ctl_env):
    env, control, client = ctl_env
    sim = env.sim
    client.start()
    ctl_id = client.launch("generic-be", 2)

    def scenario():
        yield sim.timeout(0.001)  # let the launch get in flight
        result = yield from client.stop(drain=False)
        return result

    st = run_gen(env, scenario())
    assert st["state"] == "stopped"
    handle = control.daemon.get(ctl_id).handle
    assert handle.done
    # a cancelled launch ends in a terminal state and holds no nodes
    assert control.daemon.get(ctl_id).session.state in (
        SessionState.KILLED, SessionState.FAILED)
    assert not env.rm.live_allocations


def test_stop_when_never_started_is_a_noop(ctl_env):
    env, control, client = ctl_env
    st = run_gen(env, client.stop())
    assert st["state"] == "stopped"


@pytest.mark.parametrize("drain", [True, False])
def test_stop_of_a_crashed_generation_writes_nothing(ctl_env, drain):
    """A crashed daemon cannot write its own epitaph: stopping it, with
    or without a drain, leaves it CRASHED and the checkpoint as the
    crash left it for the next generation to restore."""
    env, control, client = ctl_env
    client.start()
    for _ in range(2):
        client.launch("generic-be", 3)
    env.sim.run(until=2.0)
    control.crash()
    writes, last = control.store.writes, control.store.read()
    st = run_gen(env, client.stop(drain=drain))
    assert st["state"] == "crashed"
    assert (control.store.writes, control.store.read()) == (writes, last)


def test_end_session_releases_nodes(ctl_env):
    env, control, client = ctl_env
    client.start()
    ctl_id = client.launch("generic-be", 3)
    run_gen(env, client.wait(ctl_id))
    assert env.rm.live_allocations
    ok = run_gen(env, client.end(ctl_id))
    assert ok is True
    assert client.info(ctl_id)["state"] == "detached"
    assert not env.rm.live_allocations
    assert not env.rm.allocated_node_names


def test_checkpoint_written_on_every_transition(ctl_env):
    env, control, client = ctl_env
    client.start()
    writes0 = control.store.writes
    ctl_id = client.launch("generic-be", 2)
    run_gen(env, client.wait(ctl_id))
    assert control.store.writes > writes0
    cp = decode_checkpoint(control.store.read())
    assert [r.ctl_id for r in cp.sessions] == [ctl_id]
    assert cp.sessions[0].state == "ready"
    assert cp.sessions[0].alloc_ids  # names the surviving RM allocations
