"""Split-brain fencing: member epoch floors, door abandonment, breakers.

The safety property under test: once the (majority) door abandons an
attempt and re-places the request at a bumped epoch, the old attempt can
never win -- the member refuses stale-epoch submissions
(:class:`~repro.fleet.member.StaleEpoch`), and the fence delivered on
heal kills any session the stale epoch managed to start. The liveness
properties ride along: a minority door degrades to reject-or-local
instead of routing blind, circuit breakers damp flapping members without
ever causing a total outage, the failover budget turns storms into
bounded rejections, and a *wrongly* suspected member comes back routable
after heal without losing the sessions it was serving all along
(the PR 10 regression).
"""

import pytest

from repro.be import BackEnd
from repro.apps import make_compute_app
from repro.cluster import NetFaultPlan, NetPartition
from repro.fleet import (
    FenceToken,
    FleetCluster,
    FleetUnavailable,
    PlacementRequest,
    StaleEpoch,
    audit_fleet,
    make_fleet_env,
)
from repro.rm import DaemonSpec
from repro.runner import drive
from repro.simx import Interrupt, Simulator

HOLD_TIME = 2.0


def _daemon(ctx):
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()


def _hold_and_detach(fe, session):
    yield fe.cluster.sim.timeout(HOLD_TIME)
    yield from fe.detach(session, reclaim_job=True)
    return session.id


def _app_and_spec():
    return (make_compute_app(n_tasks=4, tasks_per_node=2),
            DaemonSpec("fence_tool_be", main=_daemon, image_mb=1.0))


# -- member-level epoch floors ------------------------------------------------

class TestMemberFencing:
    def test_fence_sets_floor_and_refuses_stale_epochs(self):
        member = FleetCluster.build(Simulator(), "c0", 8)
        app, spec = _app_and_spec()
        assert member.fence(request=7, epoch=2) == 0
        assert member.fence_stats["fences_received"] == 1
        with pytest.raises(StaleEpoch):
            member.submit_launch(app, spec, tool_name="t", body=None,
                                 fence_token=FenceToken(7, 1))
        # the fenced epoch itself is still admissible (floor, not past)
        member.submit_launch(app, spec, tool_name="t",
                             body=_hold_and_detach,
                             fence_token=FenceToken(7, 2))
        # re-fencing at or below the floor is an idempotent no-op
        assert member.fence(request=7, epoch=2) == 0
        assert member.fence(request=7, epoch=1) == 0
        assert member.fence_stats["fences_received"] == 1

    def test_fence_kills_live_stale_session(self):
        sim = Simulator()
        member = FleetCluster.build(sim, "c0", 8)
        app, spec = _app_and_spec()
        handle = member.submit_launch(app, spec, tool_name="t",
                                      body=_hold_and_detach,
                                      fence_token=FenceToken(0, 0))
        sim.run(until=0.5)  # mid-hold: the session is live
        assert not handle.done
        assert member.fence(request=0, epoch=1) == 1
        assert member.fence_stats["fenced_kills"] == 1
        sim.run()
        assert handle.done and isinstance(handle.exception, Interrupt)
        assert member.stale_live_sessions() == 0
        assert member.rm.live_allocations == {}

    def test_fence_counts_already_finished_stale_attempts(self):
        sim = Simulator()
        member = FleetCluster.build(sim, "c0", 8)
        app, spec = _app_and_spec()
        handle = member.submit_launch(app, spec, tool_name="t",
                                      body=_hold_and_detach,
                                      fence_token=FenceToken(1, 0))
        sim.run()
        assert handle.done and handle.exception is None
        # the shadow completion the majority re-placed: counted, not killed
        assert member.fence(request=1, epoch=1) == 0
        assert member.fence_stats["stale_completions"] == 1
        assert member.fence_stats["fenced_kills"] == 0


# -- door-level partition tolerance -------------------------------------------

def _isolating_plan(victim, others, at_round=1, heal_round=10):
    return NetFaultPlan(partitions=(
        NetPartition(groups=((victim,), tuple(others)),
                     at_round=at_round, heal_round=heal_round),))


def _run_fleet(env, n_sessions):
    fleet = env.fleet
    app, spec = _app_and_spec()
    handles = []

    def driver():
        for i in range(n_sessions):
            handles.append(fleet.submit_launch(
                app, spec, tool_name=f"t{i}", body=_hold_and_detach))
        yield from fleet.drain()

    drive(env, driver())
    return fleet, handles


class TestDoorFencing:
    def test_abandonment_fences_before_replacing(self):
        """The tentpole path end to end: a partition strands an in-flight
        attempt, the majority door bumps the epoch, queues the fence and
        re-places; on heal the fence kills the stale session, and the
        ledgers balance -- no double allocation."""
        env = make_fleet_env(
            n_clusters=3, nodes_per_cluster=4, shard_size=1,
            suspect_rounds=2, gossip_period=0.1, abandon_after=0.15,
            max_failovers=4,
            net_fault_plan=_isolating_plan(
                "c1", ("c0", "c2", "frontdoor")))
        fleet, handles = _run_fleet(env, 3)
        door = fleet.door
        stranded = [h for h in handles if h.attempts
                    and h.attempts[0] == "c1"]
        assert stranded, "no session was placed on the partitioned member"
        handle = stranded[0]
        # fenced exactly once, re-placed away from c1, and still served
        assert handle.epoch == 1
        assert len(handle.fenced_attempts) == 1
        assert handle.fenced_attempts[0][0] == "c1"
        assert handle.exception is None and handle.cluster != "c1"
        assert all(s.done for s in handle.abandoned_sessions)
        c1 = fleet.member("c1")
        assert c1.fence_stats["fences_received"] == 1
        assert (c1.fence_stats["fenced_kills"]
                + c1.fence_stats["stale_completions"]) == 1
        assert c1.stale_live_sessions() == 0
        assert door.abandoned == 1
        assert door.pending_fences == 0
        assert door.summary()["per_member"]["c1"]["fenced"] == 1
        # heal re-admitted the shunned member
        assert door.view.get("c1").routable
        assert door.view.readmissions > 0
        assert audit_fleet(fleet)["ok"]

    def test_minority_door_routes_local_only(self):
        """A door on the small side of a split never routes blind: every
        session lands on its own side, nothing is fenced or re-placed."""
        env = make_fleet_env(
            n_clusters=3, nodes_per_cluster=4, shard_size=1,
            suspect_rounds=2, gossip_period=0.1, abandon_after=0.15,
            net_fault_plan=NetFaultPlan(partitions=(
                NetPartition(groups=(("frontdoor", "c0"), ("c1", "c2")),
                             at_round=0),)))
        fleet, handles = _run_fleet(env, 3)
        door = fleet.door
        assert all(h.exception is None for h in handles)
        assert {h.cluster for h in handles} == {"c0"}
        assert door.abandoned == 0 and door.pending_fences == 0
        for member in fleet.members:
            assert member.fence_stats["fences_received"] == 0
        assert audit_fleet(fleet)["ok"]

    def test_minority_door_rejects_when_its_side_dies(self):
        env = make_fleet_env(
            n_clusters=3, nodes_per_cluster=4, shard_size=1,
            suspect_rounds=2, gossip_period=0.1,
            net_fault_plan=NetFaultPlan(partitions=(
                NetPartition(groups=(("frontdoor", "c0"), ("c1", "c2")),
                             at_round=0),)))
        fleet = env.fleet
        fleet.crash("c0")
        app, spec = _app_and_spec()
        handle = fleet.submit_launch(app, spec, tool_name="t",
                                     body=_hold_and_detach)
        env.sim.run()
        with pytest.raises(FleetUnavailable):
            handle.result()
        assert fleet.door.minority_rejections >= 1
        assert fleet.door.rejected >= 1

    def test_failover_budget_turns_storms_into_bounded_rejection(self):
        env = make_fleet_env(n_clusters=3, nodes_per_cluster=4,
                             shard_size=1, max_failovers=0)
        fleet = env.fleet
        for name in fleet.member_names:
            fleet.crash(name)
        app, spec = _app_and_spec()
        handle = fleet.submit_launch(app, spec, tool_name="t",
                                     body=_hold_and_detach)
        env.sim.run()
        with pytest.raises(FleetUnavailable, match="failover budget"):
            handle.result()
        assert len(handle.attempts) == 1  # budget 0: one attempt, no storm
        assert fleet.door.rejected == 1

    def test_breakers_trip_exclude_and_half_open_fallback(self):
        env = make_fleet_env(n_clusters=2, nodes_per_cluster=4,
                             shard_size=1, breaker_threshold=2,
                             breaker_cooldown=5.0)
        door = env.fleet.door
        request = PlacementRequest(key="k", n_nodes=2)
        door._breaker_failure("c0")
        assert not door._breaker_open("c0")  # one failure is not a trip
        door._breaker_failure("c0")
        assert door._breaker_open("c0")
        assert door.summary()["breaker_trips"] == 1
        assert door._place(request, set()) == "c1"
        # every candidate breaker-open: half-open fallback still routes
        door._breaker_failure("c1")
        door._breaker_failure("c1")
        assert door._place(request, set()) is not None
        # cooldown expiry closes the breaker
        def clock():
            yield env.sim.timeout(6.0)
        env.sim.process(clock())
        env.sim.run()
        assert not door._breaker_open("c0")
        # a success resets the consecutive-failure count
        door._breaker_failure("c0")
        door._breaker_success("c0")
        door._breaker_failure("c0")
        assert not door._breaker_open("c0")

    def test_wrongly_suspected_member_recovers_with_sessions_intact(self):
        """PR 10 regression: a slow-but-alive member cut off by a
        transient partition is suspected DOWN, yet keeps serving its
        in-flight sessions; after heal it is routable again, re-admission
        is counted, and nothing was lost or fenced."""
        env = make_fleet_env(
            n_clusters=3, nodes_per_cluster=4, shard_size=1,
            suspect_rounds=2, gossip_period=0.1,
            abandon_after=10.0,  # grace >> storm: the door never fences
            net_fault_plan=_isolating_plan(
                "c1", ("c0", "c2", "frontdoor"), at_round=1,
                heal_round=8))
        fleet, handles = _run_fleet(env, 3)
        door = fleet.door
        # every session completed, including the one on the suspect
        assert all(h.exception is None for h in handles)
        on_c1 = [h for h in handles if h.cluster == "c1"]
        assert on_c1 and all(h.failovers == 0 for h in on_c1)
        # the door really did call c1 DOWN mid-storm -- and took it back
        assert door.view.readmissions > 0
        assert door.view.get("c1").routable
        # no fencing, no abandonment, no leaks: the suspicion was wrong
        # and the machinery knew better than to act on it within grace
        assert door.abandoned == 0
        assert fleet.member("c1").fence_stats["fences_received"] == 0
        assert audit_fleet(fleet)["ok"]
