"""SessionHandle.cancel() racing a drain (satellite coverage).

A queued launch withdrawn *during* a drain must release its admission
slot and its RM queue entry, and must not block the drain's completion.
The drain walks every handle; a cancelled handle completes with an
Interrupt, which the walk must treat as "settled", not as a failure of
the drain itself.
"""

from __future__ import annotations

from repro.cluster import ClusterSpec
from repro.ctl import ControlPlane, DaemonState, decode_checkpoint
from repro.fe.session import SessionState
from repro.runner import make_env
from repro.simx import Interrupt

from tests.ctl.conftest import run_gen


def _gated_env(n_compute=12, max_in_flight=1):
    env = make_env(n_compute=n_compute,
                   spec=ClusterSpec(n_compute=n_compute, seed=5), seed=5)
    control = ControlPlane(env.cluster, env.rm, max_in_flight=max_in_flight)
    return env, control


def test_cancel_of_admission_queued_launch_during_drain():
    env, control = _gated_env()
    sim = env.sim
    control.cmd_start()
    id1 = control.launch("generic-be", 3)
    id2 = control.launch("generic-be", 3)  # behind the admission gate

    def scenario():
        stop_proc = control.stop_async(drain=True)
        yield sim.timeout(0.001)
        assert control.daemon.state is DaemonState.DRAINING
        assert control.daemon.service.pending_admissions == 1
        assert control.cancel(id2) is True
        yield stop_proc

    run_gen(env, scenario())
    daemon = control.daemon
    assert daemon.state is DaemonState.STOPPED, "drain must complete"
    # the withdrawn launch settled with an Interrupt and released its slot
    h2 = daemon.get(id2).handle
    assert h2.done and isinstance(h2.exception, Interrupt)
    assert daemon.service.pending_admissions == 0
    assert daemon.service.in_flight == 0
    # the survivor drained to READY; the cancelled one holds nothing
    assert daemon.get(id1).session.state is SessionState.READY
    assert daemon.get(id2).session.state in (SessionState.KILLED,
                                             SessionState.FAILED)
    held = {n.name for a in env.rm.live_allocations.values()
            for n in a.nodes}
    assert held == {n.name for a
                    in daemon.get(id1).session.owned_allocs
                    for n in a.nodes}
    # the final checkpoint records only the survivor
    cp = decode_checkpoint(control.store.read())
    assert [r.ctl_id for r in cp.sessions] == [id1]


def test_cancel_of_rm_queued_launch_during_drain():
    """The cancelled launch already holds an RM queue entry (nodes, not
    admission): cancelling must withdraw that entry, or the drain's
    final accounting leaks a phantom request."""
    env, control = _gated_env(n_compute=4, max_in_flight=3)
    sim = env.sim
    control.cmd_start()
    id1 = control.launch("generic-be", 3)

    def scenario():
        # wait until id1 holds nodes, then queue id2 behind it at the RM
        while control.info(id1)["state"] in ("created", "queued"):
            yield sim.timeout(0.005)
        id2 = control.launch("generic-be", 3)
        yield sim.timeout(0.01)
        assert control.info(id2)["state"] == "queued"
        assert env.rm.queued_requests == 1
        stop_proc = control.stop_async(drain=True)
        yield sim.timeout(0.001)
        assert control.daemon.state is DaemonState.DRAINING
        assert control.cancel(id2) is True
        yield stop_proc
        return id2

    id2 = run_gen(env, scenario())
    daemon = control.daemon
    assert daemon.state is DaemonState.STOPPED
    assert env.rm.queued_requests == 0, "cancelled queue entry must go"
    h2 = daemon.get(id2).handle
    assert h2.done and isinstance(h2.exception, Interrupt)
    assert daemon.get(id1).session.state is SessionState.READY


def test_drain_completes_when_every_handle_is_cancelled():
    env, control = _gated_env()
    sim = env.sim
    control.cmd_start()
    ids = [control.launch("generic-be", 3) for _ in range(3)]

    def scenario():
        stop_proc = control.stop_async(drain=True)
        yield sim.timeout(0.001)
        for ctl_id in ids:
            control.cancel(ctl_id)
        yield stop_proc

    run_gen(env, scenario())
    assert control.daemon.state is DaemonState.STOPPED
    assert not env.rm.live_allocations
    assert env.rm.queued_requests == 0
    assert len(env.rm.free_nodes()) == 12
