"""One operation lifecycle under both front doors.

``ToolService`` (one cluster) and ``FleetFrontDoor`` (a fleet) share
:class:`repro.fe.service.OperationCore`: the same registration, admission
gate, cancel sweep, settle loop, drain rule and outcome counts. Each test
runs against both doors.
"""

import pytest

from repro.apps import make_compute_app
from repro.be import minimal_daemon
from repro.fe.service import OperationCore, ProcessFuture
from repro.fleet import FleetFrontDoor, FleetUnavailable, make_fleet_env
from repro.rm import AllocationError, DaemonSpec
from repro.runner import drive, make_service_env
from repro.simx import Interrupt, Simulator

SPEC = DaemonSpec("cored", main=minimal_daemon, image_mb=1.0)


def _app(nodes=2):
    return make_compute_app(n_tasks=nodes * 2, tasks_per_node=2)


def _hold(seconds):
    def body(fe, session):
        yield fe.cluster.sim.timeout(seconds)
        yield from fe.detach(session, reclaim_job=True)
    return body


def _service():
    env = make_service_env(n_compute=8)
    return env, env.service


def _fleet():
    env = make_fleet_env(n_clusters=2, nodes_per_cluster=4, seed=1)
    return env, env.fleet.door


DOORS = pytest.mark.parametrize("build", [_service, _fleet],
                                ids=["service", "fleet"])


def _run_process(env, gen):
    """Run ``gen`` as its own process; returns it and a record of its
    outcome: its exception (or None) and the virtual time it finished."""
    out = {}
    proc = env.sim.process(gen)

    def finished(ev):
        ev.defuse()
        out.update(at=env.sim.now, exception=ev.exception)

    proc.callbacks.append(finished)
    return proc, out


@DOORS
def test_interrupting_the_process_running_a_drain_raises(build):
    """The process running a drain is interrupted at t=1.0 while a
    session holds until t~5: the drain re-raises the Interrupt at once
    instead of waiting the session out and returning normally."""
    env, door = build()
    held = door.submit_launch(_app(), SPEC, body=_hold(5.0))
    proc, out = _run_process(env, door.drain())

    def interrupter():
        yield env.sim.timeout(1.0)
        proc.interrupt("operator pressed ^C")

    env.sim.process(interrupter())
    env.sim.run()
    assert isinstance(out["exception"], Interrupt)
    assert out["at"] == 1.0
    # the held session itself was not touched and finished on its own
    assert held.done and held.exception is None
    assert held.finished_at > 5.0


@DOORS
def test_drain_skips_cancels_and_reraises_faults(build):
    env, door = build()
    ok = door.submit_launch(_app(), SPEC, body=_hold(0.5))
    cancelled = door.submit_launch(_app(), SPEC, body=_hold(0.5))
    cancelled.cancel()
    sessions = drive(env, door.drain())
    assert sessions == [ok.result()]
    assert isinstance(cancelled.exception, Interrupt)
    # a request no member can ever fit fails: a fault for the service,
    # an expected rejection for the fleet (every member refused it)
    bad = door.submit_launch(_app(nodes=64), SPEC)
    fleet = isinstance(door, FleetFrontDoor)
    if fleet:
        assert drive(env, door.drain()) == sessions
        assert isinstance(bad.exception, FleetUnavailable)
    else:
        with pytest.raises(AllocationError):
            drive(env, door.drain())
    summary = door.summary()
    assert (summary["submitted"], summary["completed"],
            summary["cancelled"]) == (3, 1, 1)
    # the fleet counts its rejection apart from faults
    assert (summary["failed"], summary.get("rejected")) == (
        (0, 1) if fleet else (1, None))
    assert len(summary["launch_latencies"]) == 1


def _sweep(build, sweeps):
    """Three held sessions; ``sweeps`` cancel_all calls in one instant at
    t=0.5 while a settle runs. Returns the env, door, handles and the
    settle's outcome with each sweep's count."""
    env, door = build()
    handles = [door.submit_launch(_app(), SPEC, body=_hold(2.0))
               for _ in range(3)]
    _, out = _run_process(env, door.settle())

    def canceller():
        yield env.sim.timeout(0.5)
        out["cancelled"] = tuple(door.cancel_all("shutting down")
                                 for _ in range(sweeps))

    env.sim.process(canceller())
    env.sim.run()
    return env, door, handles, out


@DOORS
def test_settle_never_raises_and_cancel_all_counts(build):
    env, door, handles, out = _sweep(build, 2)
    assert out["exception"] is None
    # a sweep in the instant of the first finds every interrupt still
    # undelivered: it counts none and schedules nothing
    assert out["cancelled"] == (3, 0)
    assert door.cancel_all("shutting down") == 0
    assert all(isinstance(h.exception, Interrupt) for h in handles)
    assert out["at"] == max(h.finished_at for h in handles)
    once = _sweep(build, 1)[0]
    assert env.sim.stats.events == once.sim.stats.events



def test_an_operation_that_survived_an_interrupt_can_be_cancelled_again():
    sim = Simulator()
    core = OperationCore(sim, "core", max_in_flight=None)
    taken = []

    def stubborn():
        while True:
            try:
                yield sim.timeout(10.0)
                return
            except Interrupt as exc:
                taken.append((sim.now, exc.cause))

    core._start(ProcessFuture(sim, 0), stubborn(), "stubborn")
    counts = []

    def client():
        yield sim.timeout(1.0)
        counts.append(core.cancel_all("first"))
        counts.append(core.cancel_all("undelivered"))
        yield sim.timeout(0)  # the interrupt is delivered before this
        counts.append(core.cancel_all("second"))

    sim.process(client())
    sim.run()
    assert counts == [1, 0, 1]
    assert taken == [(1.0, "first"), (1.0, "second")]
    assert sim.now == 11.0
