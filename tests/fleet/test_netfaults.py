"""Network-fault injection: round-windowed verdicts and mesh integration.

The injector's contract is declarative determinism: topology verdicts
(partitions, directed link-downs, flap square waves) are pure functions
of the round number, message weather (loss/delay/dup) draws from one
dedicated seeded stream, and a mesh without an injector -- or with an
empty plan -- behaves bit-identically to the pre-netfault build. The
mesh-level tests then pin the semantics the chaos harness relies on: a
blocked edge feeds the same DOWN-suspicion path a crash does, a delayed
digest is a *made* contact (no suspicion) merged late, a duplicated
digest is a no-op, and a healed partition re-admits the slandered side
within ``suspect_rounds + diameter`` rounds.
"""

from dataclasses import asdict

from repro.cluster import (
    FlappingLink,
    GossipDelay,
    GossipDup,
    GossipLoss,
    NetFaultInjector,
    NetFaultPlan,
    NetLinkDown,
    NetPartition,
)
from repro.cluster.faults import NEVER
from repro.fleet import ClusterHealth, ClusterState, FleetView, GossipMesh


class FakeMember:
    """The minimal gossip persona: versioned self-reports plus a view."""

    def __init__(self, name):
        self.name = name
        self.view = FleetView()
        self.crashed = False
        self.degraded = False
        self._version = 0
        self.view.put(self.publish_health())

    def publish_health(self):
        self._version += 1
        state = (ClusterState.DEGRADED if self.degraded
                 else ClusterState.UP)
        return ClusterHealth(cluster=self.name, state=state,
                             version=self._version, n_free=4, n_total=4,
                             in_flight=0, queued=0)


def _members(n):
    return [FakeMember(f"c{i:02d}") for i in range(n)]


def _mesh(n, shard_size=3, **kw):
    members = _members(n)
    return members, GossipMesh(members, shard_size=shard_size, **kw)


def _states_of(mesh, cluster):
    return {m.name: (m.view.get(cluster).state
                     if m.view.get(cluster) else None)
            for m in mesh.live_members()}


# -- injector verdicts (no mesh) ----------------------------------------------

class TestInjectorTopology:
    def test_partition_blocks_cross_group_both_ways_within_window(self):
        plan = NetFaultPlan(partitions=(
            NetPartition(groups=(("a", "b"), ("c", "d")),
                         at_round=2, heal_round=5),))
        nf = NetFaultInjector(plan)
        nf.begin_round(1)
        assert not nf.edge_blocked("a", "c")
        nf.begin_round(2)
        assert nf.edge_blocked("a", "c") and nf.edge_blocked("c", "a")
        assert nf.edge_blocked("b", "d")
        # in-group pairs keep talking
        assert not nf.edge_blocked("a", "b")
        assert not nf.edge_blocked("c", "d")
        nf.begin_round(5)
        assert not nf.edge_blocked("a", "c")
        assert nf.all_healed()

    def test_link_down_is_directed_unless_symmetric(self):
        plan = NetFaultPlan(link_downs=(
            NetLinkDown(src="a", dst="b"),
            NetLinkDown(src="c", dst="d", symmetric=True),))
        nf = NetFaultInjector(plan)
        nf.begin_round(0)
        # a->b dead: b cannot hear a; a still hears b
        assert nf.edge_blocked("b", "a")
        assert not nf.edge_blocked("a", "b")
        assert not nf.data_path_open("a", "b")
        assert nf.data_path_open("b", "a")
        # symmetric: both directions dead
        assert nf.edge_blocked("c", "d") and nf.edge_blocked("d", "c")

    def test_flap_square_wave_is_phase_anchored(self):
        flap = FlappingLink(a="a", b="b", down_rounds=2, up_rounds=1,
                            at_round=3, heal_round=9)
        assert [flap.down_at(r) for r in range(11)] == [
            False, False, False,        # before onset
            True, True, False,          # down 2, up 1
            True, True, False,          # repeat
            False, False]               # healed for good

    def test_weather_respects_windows(self):
        plan = NetFaultPlan(losses=(GossipLoss(rate=1.0, window=(2, 4)),))
        nf = NetFaultInjector(plan, seed=7)
        nf.begin_round(1)
        assert not nf.digest_lost("a", "b")
        nf.begin_round(2)
        assert nf.digest_lost("a", "b")
        nf.begin_round(4)
        assert not nf.digest_lost("a", "b")
        assert nf.stats.lost_digests == 1

    def test_delay_and_dup_draw_and_log(self):
        plan = NetFaultPlan(delays=(GossipDelay(rate=1.0, rounds=3),),
                            dups=(GossipDup(rate=1.0),))
        nf = NetFaultInjector(plan)
        nf.begin_round(0)
        assert nf.digest_delay("a", "b") == 3
        assert nf.digest_duplicated("a", "b")
        kinds = {entry[1] for entry in nf.log}
        assert kinds == {"digest-delayed", "digest-dup"}

    def test_empty_plan_draws_nothing_and_blocks_nothing(self):
        plan = NetFaultPlan()
        assert plan.empty and plan.last_heal_round == 0
        nf = NetFaultInjector(plan, seed=3)
        for r in range(5):
            nf.begin_round(r)
            assert not nf.edge_blocked("a", "b")
            assert nf.data_path_open("a", "b")
            assert not nf.digest_lost("a", "b")
            assert nf.digest_delay("a", "b") == 0
            assert not nf.digest_duplicated("a", "b")
        assert asdict(nf.stats) == {
            "blocked_edges": 0, "lost_digests": 0, "delayed_digests": 0,
            "duplicated_digests": 0, "data_sends_blocked": 0}
        assert nf.all_healed() and not nf.log

    def test_verdicts_are_a_pure_function_of_plan_and_seed(self):
        plan = NetFaultPlan(
            partitions=(NetPartition(groups=(("a",), ("b", "c")),
                                     at_round=1, heal_round=4),),
            losses=(GossipLoss(rate=0.5),),
            delays=(GossipDelay(rate=0.5, rounds=2),))

        def trace(nf):
            out = []
            for r in range(6):
                nf.begin_round(r)
                out.append((nf.edge_blocked("b", "a"),
                            nf.digest_lost("b", "c"),
                            nf.digest_delay("c", "b")))
            return out

        assert (trace(NetFaultInjector(plan, seed=11))
                == trace(NetFaultInjector(plan, seed=11)))

    def test_last_heal_round_spans_windows_and_ignores_never(self):
        plan = NetFaultPlan(
            partitions=(NetPartition(groups=(("a",), ("b",)),
                                     heal_round=5),),
            flaps=(FlappingLink(a="a", b="b", heal_round=NEVER),),
            dups=(GossipDup(rate=0.1, window=(0, 9)),))
        assert plan.last_heal_round == 9


# -- mesh integration ---------------------------------------------------------

class TestMeshUnderNetFaults:
    def test_partition_drives_suspicion_then_heal_readmits(self):
        """The chaos harness's core loop in miniature: a netsplit makes
        each side call the other DOWN, and within ``suspect_rounds +
        diameter`` rounds of heal the slander is out-gossiped, views
        state-agree, and re-admissions are counted."""
        plan = NetFaultPlan(partitions=(
            NetPartition(groups=(("c00", "c01", "c02"),
                                 ("c03", "c04", "c05")),
                         at_round=0, heal_round=6),))
        members, mesh = _mesh(6, shard_size=3, suspect_rounds=2,
                              netfaults=NetFaultInjector(plan))
        mesh.run_rounds(6)
        # the bridge listeners missed suspect_rounds contacts: each side
        # now believes the other side's head is DOWN
        assert members[0].view.get("c03").state is ClusterState.DOWN
        assert members[3].view.get("c00").state is ClusterState.DOWN
        mesh.run_rounds(mesh.suspect_rounds + mesh.diameter())
        assert mesh.state_converged()
        assert ClusterState.DOWN not in _states_of(mesh, "c03").values()
        assert ClusterState.DOWN not in _states_of(mesh, "c00").values()
        assert members[0].view.readmissions > 0

    def test_cut_off_observer_is_never_gossiped_as_a_cluster(self,
                                                             monkeypatch):
        """Chaos seed 0 (minority split) cuts shard heads off from the
        front door for longer than ``suspect_rounds``. The door never
        self-reports, so no view may end up holding a record for it."""
        from repro.fleet import chaos

        real_make_fleet_env = chaos.make_fleet_env
        envs = []

        def capture(**kwargs):
            envs.append(real_make_fleet_env(**kwargs))
            return envs[-1]

        monkeypatch.setattr(chaos, "make_fleet_env", capture)
        assert chaos.run_fleet_chaos(chaos.scenario_for_seed(0)).ok
        fleet = envs[0].fleet
        names = {member.name for member in fleet.members}
        for participant in [*fleet.members, fleet.door]:
            assert set(participant.view.clusters) <= names, participant.name

    def test_blocked_edge_counts_as_missed_contact_not_instant_down(self):
        plan = NetFaultPlan(partitions=(
            NetPartition(groups=(("c00", "c01", "c02"),
                                 ("c03", "c04", "c05")),),))
        members, mesh = _mesh(6, shard_size=3, suspect_rounds=3,
                              netfaults=NetFaultInjector(plan))
        mesh.run_rounds(2)  # two misses < suspect_rounds: no verdict yet
        rec = members[0].view.get("c03")
        assert rec is None or rec.state is not ClusterState.DOWN
        mesh.run_round()  # third consecutive miss: now it's a verdict
        assert members[0].view.get("c03").state is ClusterState.DOWN

    def test_delayed_digests_are_made_contacts_merged_late(self):
        """Total delay weather slows news but never fabricates DOWN
        verdicts: the contact succeeded, only the payload is late."""
        plan = NetFaultPlan(delays=(
            GossipDelay(rate=1.0, rounds=2, window=(1, NEVER)),))
        members, mesh = _mesh(4, shard_size=4, suspect_rounds=1,
                              netfaults=NetFaultInjector(plan))
        mesh.run_round()  # round 0 is clean: everyone learns everyone
        members[3].degraded = True
        mesh.run_rounds(2)  # rounds 1-2: every pull in flight, 2 late
        assert members[0].view.get("c03").state is ClusterState.UP
        mesh.run_round()  # round 1's snapshots land at round 3
        assert members[0].view.get("c03").state is ClusterState.DEGRADED
        # and despite suspect_rounds=1, no one was slandered
        for m in members:
            assert ClusterState.DOWN not in _states_of(mesh, m.name).values()

    def test_duplicated_digests_are_idempotent(self):
        plan = NetFaultPlan(dups=(GossipDup(rate=1.0),))
        nf = NetFaultInjector(plan)
        members, mesh = _mesh(4, shard_size=4, netfaults=nf)
        members[2].degraded = True
        mesh.run_rounds(2)
        assert nf.stats.duplicated_digests > 0
        assert mesh.converged()
        assert set(_states_of(mesh, "c02").values()) \
            == {ClusterState.DEGRADED}

    def test_total_loss_slanders_then_heal_readmits_everyone(self):
        plan = NetFaultPlan(losses=(GossipLoss(rate=1.0, window=(0, 3)),))
        members, mesh = _mesh(4, shard_size=4, suspect_rounds=2,
                              netfaults=NetFaultInjector(plan))
        mesh.run_rounds(3)
        assert ClusterState.DOWN in _states_of(mesh, "c01").values()
        mesh.run_rounds(mesh.suspect_rounds + mesh.diameter())
        assert mesh.state_converged()
        for m in members:
            assert ClusterState.DOWN not in _states_of(mesh, m.name).values()
        assert sum(m.view.readmissions for m in members) > 0

    def test_empty_injector_is_bit_identical_to_no_injector(self):
        """The byte-identity gate at mesh level: an attached injector
        with nothing scheduled changes no view and draws no RNG."""
        plain_members, plain = _mesh(6, shard_size=3, suspect_rounds=2)
        nf = NetFaultInjector(NetFaultPlan(), seed=9)
        faulted_members, faulted = _mesh(6, shard_size=3, suspect_rounds=2,
                                         netfaults=nf)
        plain_members[4].degraded = True
        faulted_members[4].degraded = True
        plain.run_rounds(5)
        faulted.run_rounds(5)
        for a, b in zip(plain_members, faulted_members):
            assert a.view.records() == b.view.records()
        assert asdict(nf.stats)["blocked_edges"] == 0
        assert not nf.log
