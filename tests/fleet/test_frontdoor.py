"""Front-door behavior: admission, shunned members, cancel.

Failover under crashes is ``test_failover.py``'s subject; here the fleet
is healthy and the door's *routing* contracts are pinned: the fleet-wide
admission gate, passing over members the view says are saturated or
DEGRADED (and the least-loaded of them when all are), the
outstanding-requests overlay (``effective_view``), and clean client-side
cancellation.
"""

from dataclasses import replace

import pytest

from repro.apps import make_compute_app
from repro.be import BackEnd
from repro.fleet import (
    ClusterState,
    FleetView,
    audit_fleet,
    make_fleet_env,
    make_fleet_member_env,
)
from repro.rm import DaemonSpec
from repro.runner import drive
from repro.simx import Interrupt


def _daemon(ctx):
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()


SPEC = DaemonSpec("doord", main=_daemon, image_mb=1.0)


def _app(nodes=2, tpn=2):
    return make_compute_app(n_tasks=nodes * tpn, tasks_per_node=tpn)


def _hold_body(hold):
    def body(fe, session):
        yield fe.cluster.sim.timeout(hold)
        yield from fe.detach(session, reclaim_job=True)
        return session.id
    return body


class TestAdmissionGate:
    def test_fleet_gate_caps_concurrent_sessions_fleetwide(self):
        env = make_fleet_env(n_clusters=4, nodes_per_cluster=8,
                             max_in_flight=2, seed=2)
        fleet = env.fleet
        for i in range(8):
            fleet.submit_launch(_app(), SPEC, tool_name=f"u{i}",
                                body=_hold_body(0.2))
        peaks = []

        def monitor():
            while any(not h.done for h in fleet.door.handles):
                peaks.append(sum(m.in_flight for m in fleet.members))
                yield env.sim.timeout(0.01)

        def scenario():
            env.sim.process(monitor(), name="monitor")
            yield from fleet.drain()

        drive(env, scenario())
        assert max(peaks) <= 2
        assert fleet.door.summary()["completed"] == 8
        assert audit_fleet(fleet)["ok"]

    def test_ungated_door_runs_wide_open(self):
        env = make_fleet_env(n_clusters=4, nodes_per_cluster=8, seed=2)
        fleet = env.fleet
        for i in range(8):
            fleet.submit_launch(_app(), SPEC, tool_name=f"u{i}",
                                body=_hold_body(0.2))
        drive(env, fleet.drain())
        summary = fleet.door.summary()
        assert summary["completed"] == 8
        # with 4 idle clusters and no gate, the burst spreads
        assert len(summary["served_by"]) >= 2


class TestShunnedSpill:
    def _poison(self, door, name, state=ClusterState.DEGRADED, **over):
        rec = door.view.get(name)
        door.view.put(replace(rec, state=state,
                              version=rec.version + 1, **over))

    def test_degraded_member_is_spilled_past(self):
        env = make_fleet_env(n_clusters=2, nodes_per_cluster=8, seed=4)
        fleet = env.fleet
        # the view says c0 is DEGRADED; least-loaded must pick c1
        self._poison(fleet.door, "c0")
        handle = fleet.submit_launch(_app(), SPEC, tool_name="u0")
        drive(env, fleet.drain())
        assert handle.attempts == ["c1"]

    def test_saturated_member_avoided_while_alternative_exists(self):
        env = make_fleet_env(n_clusters=3, nodes_per_cluster=8, seed=4)
        fleet = env.fleet
        self._poison(fleet.door, "c1", state=ClusterState.UP, n_free=0)
        handles = [fleet.submit_launch(_app(), SPEC, tool_name=f"u{i}")
                   for i in range(2)]
        drive(env, fleet.drain())
        for handle in handles:
            assert handle.cluster != "c1"

    def test_fully_shunned_fleet_still_serves(self):
        """When *every* member looks shunned, the door routes anyway
        (requests go somewhere rather than nowhere), to the least-loaded
        of them: c0 carries more in flight, so c1 serves."""
        env = make_fleet_env(n_clusters=2, nodes_per_cluster=8, seed=4)
        fleet = env.fleet
        self._poison(fleet.door, "c0", in_flight=3)
        self._poison(fleet.door, "c1")
        assert all(rec.shunned for rec in fleet.door.view.records())
        handle = fleet.submit_launch(_app(), SPEC, tool_name="u0")
        drive(env, fleet.drain())
        assert handle.exception is None
        assert handle.attempts == ["c1"]


class TestEffectiveView:
    def test_outstanding_requests_are_charged_onto_the_view(self):
        env = make_fleet_env(n_clusters=2, nodes_per_cluster=8, seed=8)
        door = env.fleet.door
        base = door.view.get("c0")
        door._note_routed("c0", 3)
        eff = door.effective_view().get("c0")
        assert eff.n_free == base.n_free - 3
        assert eff.in_flight == base.in_flight + 1
        # the gossiped view itself is untouched
        assert door.view.get("c0") == base
        door._note_finished("c0", 3)
        assert door.effective_view().get("c0") == base

    def test_same_instant_burst_spreads_over_members(self):
        env = make_fleet_env(n_clusters=4, nodes_per_cluster=8, seed=8)
        fleet = env.fleet
        for i in range(8):
            fleet.submit_launch(_app(), SPEC, tool_name=f"u{i}",
                                body=_hold_body(0.2))
        drive(env, fleet.drain())
        served = fleet.door.summary()["served_by"]
        # 8 two-node sessions over 4x8 nodes: no single member can have
        # taken the whole burst if outstanding charging works
        assert len(served) >= 3
        assert max(served.values()) <= 4


class TestCancellation:
    def test_client_cancel_unwinds_cleanly(self):
        env = make_fleet_env(n_clusters=2, nodes_per_cluster=8, seed=10)
        fleet = env.fleet
        victim = fleet.submit_launch(_app(), SPEC, tool_name="victim",
                                     body=_hold_body(1.0))
        keeper = fleet.submit_launch(_app(), SPEC, tool_name="keeper",
                                     body=_hold_body(0.1))

        def scenario():
            yield env.sim.timeout(0.4)
            assert victim.cancel()
            yield from fleet.drain()

        drive(env, scenario())
        assert isinstance(victim.exception, Interrupt)
        assert keeper.exception is None
        summary = fleet.door.summary()
        assert summary["cancelled"] == 1 and summary["completed"] == 1
        assert audit_fleet(fleet)["ok"]

    def test_cancel_after_done_returns_false(self):
        env = make_fleet_env(n_clusters=2, nodes_per_cluster=8, seed=10)
        handle = env.fleet.submit_launch(_app(), SPEC, tool_name="u0")
        drive(env, env.fleet.drain())
        assert handle.done
        assert not handle.cancel()


class TestSingleMemberFleet:
    def test_member_env_serves_and_audits_clean(self):
        env = make_fleet_member_env(n_compute=8)
        handle = env.fleet.submit_launch(_app(), SPEC, tool_name="solo",
                                         body=_hold_body(0.05))
        drive(env, env.fleet.drain())
        assert handle.exception is None
        assert handle.cluster == "c0"
        assert handle.launch_latency is not None
        assert audit_fleet(env.fleet)["ok"]

    def test_member_env_cluster_is_make_env_shaped(self):
        from repro.runner import make_env
        direct = make_env(n_compute=8)
        via = make_fleet_member_env(n_compute=8)
        assert [n.name for n in via.cluster.compute] \
            == [n.name for n in direct.cluster.compute]
        assert via.cluster.spec == direct.cluster.spec
