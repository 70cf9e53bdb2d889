"""Partitioned gossip: shard-local peering, bounded convergence, suspicion.

The mesh's contract is topological: digests travel exactly one hop per
round, so any news reaches every live participant within
``mesh.diameter()`` rounds -- *despite* each member peering only with its
shard (plus one bridge link per shard boundary, s_group style). These
tests pin the partition structure, that exact bound, the
evidence-based DOWN suspicion, and that a live member out-gossips
slander about itself.

Participants here are minimal fakes (name/view/publish_health/crashed):
the mesh's protocol surface, nothing else -- crash/failover integration
against real clusters lives in ``test_failover.py``.
"""

import pytest

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


class FakeObserver:
    def __init__(self, name="door"):
        self.name = name
        self.view = FleetView()
        self.crashed = False


def _members(n):
    return [FakeMember(f"c{i:02d}") for i in range(n)]


def _mesh(n, shard_size=3, **kw):
    members = _members(n)
    return members, GossipMesh(members, shard_size=shard_size, **kw)


def _states_of(mesh, cluster):
    """``cluster``'s state as seen by every live participant."""
    return {m.name: (m.view.get(cluster).state
                     if m.view.get(cluster) else None)
            for m in mesh.live_members()}


class TestTopology:
    def test_shards_partition_members_in_sorted_order(self):
        members, mesh = _mesh(8, shard_size=3)
        assert mesh.shards == (("c00", "c01", "c02"),
                               ("c03", "c04", "c05"),
                               ("c06", "c07"))
        for member in members:
            assert member.name in mesh.shards[mesh.shard_of(member.name)]

    def test_edges_are_shard_local_plus_head_ring_only(self):
        members, mesh = _mesh(9, shard_size=3)
        heads = {shard[0] for shard in mesh.shards}
        for a, b in mesh.edges:
            same_shard = mesh.shard_of(a) == mesh.shard_of(b)
            head_bridge = a in heads and b in heads
            assert same_shard or head_bridge
        # a non-head member never peers outside its shard
        assert all(mesh.shard_of(p) == mesh.shard_of("c01")
                   for p in mesh.neighbors("c01"))

    def test_no_all_to_all_blowup(self):
        """The s_groups point: edge count grows like N, not N^2."""
        n = 24
        members, mesh = _mesh(n, shard_size=4)
        full_mesh = n * (n - 1) // 2
        # 6 shards: 6 edges each intra-shard + 6 head-ring bridges
        assert len(mesh.edges) == 6 * 6 + 6
        assert len(mesh.edges) < full_mesh / 5

    def test_observer_peers_with_every_shard_head(self):
        members, mesh = _mesh(8, shard_size=3)
        door = FakeObserver()
        mesh.attach_observer(door)
        assert mesh.neighbors("door") == ("c00", "c03", "c06")

    def test_duplicate_names_rejected(self):
        members, mesh = _mesh(4)
        with pytest.raises(ValueError, match="duplicate"):
            GossipMesh(_members(2) + [FakeMember("c00")])
        with pytest.raises(ValueError, match="duplicate"):
            mesh.attach_observer(FakeObserver("c01"))


class TestConvergence:
    def test_single_shard_converges_in_one_round(self):
        members, mesh = _mesh(4, shard_size=4)
        assert mesh.diameter() == 1
        mesh.run_round()
        assert mesh.converged()

    def test_news_reaches_everyone_within_diameter_rounds(self):
        members, mesh = _mesh(12, shard_size=3)
        bound = mesh.diameter()
        members[-1].degraded = True
        mesh.run_rounds(bound)
        assert set(_states_of(mesh, members[-1].name).values()) \
            == {ClusterState.DEGRADED}

    def test_news_does_not_teleport(self):
        """One hop per round, literally: after a single round a change at
        one shard's tail is visible to its neighbors but not yet at the
        far end of the peering graph."""
        members, mesh = _mesh(12, shard_size=3)
        assert mesh.diameter() >= 3
        members[-1].degraded = True  # c11, tail of the last shard
        mesh.run_round()
        states = _states_of(mesh, "c11")
        assert states["c10"] is ClusterState.DEGRADED
        assert states["c01"] is not ClusterState.DEGRADED

    def test_observer_hears_fleetwide_news_within_bound(self):
        members, mesh = _mesh(12, shard_size=3)
        door = FakeObserver()
        mesh.attach_observer(door)
        members[7].degraded = True
        mesh.run_rounds(mesh.diameter())
        assert door.view.get("c07").state is ClusterState.DEGRADED


class TestSuspicion:
    def test_crash_becomes_down_everywhere_within_bound(self):
        members, mesh = _mesh(9, shard_size=3, suspect_rounds=2)
        mesh.run_rounds(mesh.diameter())  # everyone knows everyone
        members[4].crashed = True
        # neighbors need suspect_rounds misses, the verdict then travels
        mesh.run_rounds(mesh.suspect_rounds + mesh.diameter())
        assert set(_states_of(mesh, "c04").values()) == {ClusterState.DOWN}
        assert members[4] not in mesh.live_members()

    def test_one_missed_round_is_not_a_verdict(self):
        members, mesh = _mesh(4, shard_size=4, suspect_rounds=3)
        mesh.run_round()
        members[0].crashed = True
        mesh.run_round()
        down = [s for s in _states_of(mesh, "c00").values()
                if s is ClusterState.DOWN]
        assert not down

    def test_live_member_outgossips_slander(self):
        members, mesh = _mesh(6, shard_size=3)
        mesh.run_rounds(mesh.diameter())
        # a false rumor: someone installs a DOWN record for the live c02
        smeared = members[2].publish_health().suspect_down()
        members[5].view.put(smeared)
        assert members[5].view.get("c02").state is ClusterState.DOWN
        # c02 keeps publishing; fresher versions beat the rumor fleetwide
        mesh.run_rounds(mesh.diameter() + 1)
        assert ClusterState.DOWN not in _states_of(mesh, "c02").values()

    def test_crashed_member_views_freeze(self):
        members, mesh = _mesh(6, shard_size=3, suspect_rounds=1)
        mesh.run_rounds(2)
        members[0].crashed = True
        frozen = {r.cluster: r.version for r in members[0].view.records()}
        mesh.run_rounds(3)
        assert {r.cluster: r.version
                for r in members[0].view.records()} == frozen
