"""Cross-cluster failover under a member crash, audited against RM ledgers.

The acceptance property: a cluster crash mid-launch fails the affected
requests over to surviving members **without double-allocating nodes**
anywhere -- after the drain, every member RM's live-allocation ledger is
empty (the crashed member's included: its sessions were cancelled through
the same FE cleanup paths, so the nodes came back before the lights went
out) and free-node counts are fully restored.
"""

import pytest

from repro.apps import make_compute_app
from repro.audit import total
from repro.be import BackEnd
from repro.fleet import FleetUnavailable, audit_fleet, make_fleet_env
from repro.rm import DaemonSpec
from repro.runner import drive


def _daemon(ctx):
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()


SPEC = DaemonSpec("fleetd", main=_daemon, image_mb=1.0)


def _app(nodes=2, tpn=2):
    return make_compute_app(n_tasks=nodes * tpn, tasks_per_node=tpn)


def _body(hold):
    def body(fe, session):
        yield fe.cluster.sim.timeout(hold)
        yield from fe.detach(session, reclaim_job=True)
        return session.id
    return body


def _crash_mid_launch(env, n_requests=6, crash_at=0.05, hold=0.3):
    """Submit a burst, crash whichever member took request 0 while its
    launch is still in flight, drain, and return (fleet, victim)."""
    fleet = env.fleet
    handles = [fleet.submit_launch(_app(), SPEC, tool_name=f"u{i}",
                                   body=_body(hold))
               for i in range(n_requests)]
    box = {}

    def scenario():
        yield env.sim.timeout(crash_at)
        box["victim"] = handles[0].attempts[0]
        box["killed"] = fleet.crash(box["victim"])
        yield from fleet.drain()

    drive(env, scenario())
    return fleet, handles, box


class TestCrashFailover:
    @pytest.fixture(scope="class")
    def crashed_fleet(self):
        env = make_fleet_env(n_clusters=4, nodes_per_cluster=8,
                             shard_size=2, seed=7)
        fleet, handles, box = _crash_mid_launch(env)
        return fleet, handles, box

    def test_victim_sessions_fail_over_and_complete(self, crashed_fleet):
        fleet, handles, box = crashed_fleet
        assert box["killed"] > 0
        failed_over = [h for h in handles
                       if h.attempts and h.attempts[0] == box["victim"]
                       and h.failovers > 0]
        assert failed_over
        for h in failed_over:
            assert h.exception is None
            assert h.cluster != box["victim"]
            assert h.result().state.name in ("READY", "DETACHED")

    def test_every_request_completed_despite_the_crash(self, crashed_fleet):
        fleet, handles, box = crashed_fleet
        assert all(h.done and h.exception is None for h in handles)
        assert fleet.door.summary()["completed"] == len(handles)

    def test_no_member_ledger_leaks_a_single_allocation(self, crashed_fleet):
        fleet, handles, box = crashed_fleet
        for member in fleet.members:
            assert member.rm.live_allocations == {}, member.name
            assert member.rm.queued_requests == 0, member.name

    def test_survivor_free_counts_fully_restored(self, crashed_fleet):
        fleet, handles, box = crashed_fleet
        for member in fleet.members:
            if member.name != box["victim"]:
                assert member.n_free == member.n_total, member.name

    def test_audit_is_clean(self, crashed_fleet):
        fleet, handles, box = crashed_fleet
        audit = audit_fleet(fleet)
        assert audit["ok"], audit
        assert total(audit["violations"], "leaked-nodes") == 0

    def test_door_marked_victim_down(self, crashed_fleet):
        fleet, handles, box = crashed_fleet
        rec = fleet.door.view.get(box["victim"])
        assert rec is not None and not rec.routable


class TestAfterTheCrash:
    def test_later_arrivals_never_try_the_corpse(self):
        env = make_fleet_env(n_clusters=3, nodes_per_cluster=8,
                             shard_size=2, seed=3)
        fleet = env.fleet
        early = [fleet.submit_launch(_app(), SPEC, tool_name=f"e{i}",
                                     body=_body(0.2))
                 for i in range(3)]
        late = []

        def scenario():
            yield env.sim.timeout(0.05)
            victim = early[0].attempts[0]
            fleet.crash(victim)
            yield env.sim.timeout(0.5)
            for i in range(4):
                late.append(fleet.submit_launch(
                    _app(), SPEC, tool_name=f"l{i}", body=_body(0.1)))
            sessions = yield from fleet.drain()
            assert sessions
            for h in late:
                assert victim not in h.attempts

        drive(env, scenario())
        assert audit_fleet(fleet)["ok"]

    def test_whole_fleet_down_rejects_cleanly(self):
        env = make_fleet_env(n_clusters=2, nodes_per_cluster=4, seed=5)
        fleet = env.fleet

        def scenario():
            for name in fleet.member_names:
                fleet.crash(name)
            handle = fleet.submit_launch(_app(), SPEC, tool_name="doomed")
            yield from fleet.drain()
            assert handle.done
            assert isinstance(handle.exception, FleetUnavailable)
            with pytest.raises(FleetUnavailable):
                handle.result()

        drive(env, scenario())
        assert fleet.door.summary()["rejected"] == 1
        assert audit_fleet(fleet)["ok"]

    def test_whole_fleet_down_is_a_minority_rejection(self):
        """With every member crashed the door's view holds no majority,
        so its rejection counts as a minority rejection too -- the quorum
        rule runs in every fleet, not only under a netfault plan."""
        env = make_fleet_env(n_clusters=3, nodes_per_cluster=4, seed=5)
        fleet = env.fleet

        def scenario():
            for name in fleet.member_names:
                fleet.crash(name)
            handle = fleet.submit_launch(_app(), SPEC, tool_name="doomed")
            yield from fleet.drain()
            assert isinstance(handle.exception, FleetUnavailable)

        drive(env, scenario())
        summary = fleet.door.summary()
        assert summary["rejected"] == 1
        assert summary["minority_rejections"] == 1
        assert env.sim.stats.events == 7

    def test_repeated_crashes_cascade_until_last_survivor(self):
        env = make_fleet_env(n_clusters=3, nodes_per_cluster=8,
                             shard_size=3, seed=11)
        fleet = env.fleet
        handle = fleet.submit_launch(_app(), SPEC, tool_name="survivor",
                                     body=_body(0.4))

        def scenario():
            # shoot whichever member is serving, twice; the request must
            # keep walking to fresh members
            for _ in range(2):
                yield env.sim.timeout(0.05)
                if not handle.done and handle.attempts:
                    fleet.crash(handle.attempts[-1])
            yield from fleet.drain()

        drive(env, scenario())
        assert handle.exception is None
        assert handle.failovers == 2
        assert len(set(handle.attempts)) == 3
        assert audit_fleet(fleet)["ok"]
