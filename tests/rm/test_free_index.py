"""Free-node index: O(1)-amortized allocation bookkeeping, scan-identical.

The RM used to rescan all N compute nodes on every allocate / queue pump;
it now maintains an incremental index. These tests pin the contract: the
index-backed ``free_nodes()`` must always equal the brute-force predicate
scan (not allocated, not crashed, not blacklisted -- in compute order),
through every mutation path: grants, releases, node crashes (while free
*and* while allocated), and direct mutation of the shared
``node_blacklist`` by the launch layer.
"""

import random

import pytest

from repro.rm import AllocationError
from repro.runner import make_env


def brute_force_free(env):
    """The historical O(N) definition, straight from the predicate."""
    return [n for n in env.cluster.compute
            if n.name not in env.rm._allocated
            and not n.failed
            and n.name not in env.rm.node_blacklist]


def assert_index_exact(env):
    assert [n.name for n in env.rm.free_nodes()] \
        == [n.name for n in brute_force_free(env)]


class TestFreeNodeIndex:
    @pytest.fixture
    def env(self):
        return make_env(n_compute=16)

    def test_initially_everything_is_free_in_compute_order(self, env):
        assert env.rm.free_nodes() == env.cluster.compute
        assert_index_exact(env)

    def test_grant_takes_lowest_positions_first(self, env):
        alloc = env.rm.allocate(4)
        assert alloc.nodes == env.cluster.compute[:4]
        assert env.rm.free_nodes() == env.cluster.compute[4:]
        assert_index_exact(env)

    def test_release_restores_and_reorders_deterministically(self, env):
        a = env.rm.allocate(3)
        b = env.rm.allocate(3)
        env.rm.release(a)
        assert_index_exact(env)
        # the released low positions are granted again before higher ones
        c = env.rm.allocate(3)
        assert c.nodes == a.nodes
        env.rm.release(b)
        env.rm.release(c)
        assert env.rm.free_nodes() == env.cluster.compute

    def test_double_release_is_harmless(self, env):
        a = env.rm.allocate(2)
        env.rm.release(a)
        env.rm.release(a)
        assert env.rm.free_nodes() == env.cluster.compute
        assert_index_exact(env)

    def test_crash_while_free_removes_from_index(self, env):
        env.cluster.compute[5].fail("boom")
        names = [n.name for n in env.rm.free_nodes()]
        assert env.cluster.compute[5].name not in names
        assert len(names) == 15
        assert_index_exact(env)

    def test_crash_while_allocated_never_returns(self, env):
        alloc = env.rm.allocate(4)
        dead = alloc.nodes[2]
        dead.fail("boom")
        env.rm.release(alloc)
        assert dead not in env.rm.free_nodes()
        assert len(env.rm.free_nodes()) == 15
        assert_index_exact(env)

    def test_direct_blacklist_add_reaches_the_index(self, env):
        # the launch layer mutates rm.node_blacklist directly -- the
        # observed blacklist must keep the index exact without an RM call
        condemned = env.cluster.compute[7].name
        env.rm.node_blacklist.add(condemned)
        assert condemned not in {n.name for n in env.rm.free_nodes()}
        assert_index_exact(env)
        # idempotent re-add
        env.rm.node_blacklist.add(condemned)
        assert len(env.rm.free_nodes()) == 15

    def test_blacklist_update_and_discard(self, env):
        names = [env.cluster.compute[i].name for i in (1, 2, 3)]
        for name in names:
            env.rm.node_blacklist.add(name)
        assert len(env.rm.free_nodes()) == 13
        assert_index_exact(env)
        env.rm.node_blacklist.discard(names[1])
        assert len(env.rm.free_nodes()) == 14
        assert_index_exact(env)
        env.rm.node_blacklist.clear()
        assert env.rm.free_nodes() == env.cluster.compute

    def test_blacklisted_while_allocated_not_freed_on_release(self, env):
        alloc = env.rm.allocate(2)
        env.rm.node_blacklist.add(alloc.nodes[0].name)
        env.rm.release(alloc)
        assert alloc.nodes[0] not in env.rm.free_nodes()
        assert alloc.nodes[1] in env.rm.free_nodes()
        assert_index_exact(env)

    def test_allocation_error_reports_exact_free_count(self, env):
        env.cluster.compute[0].fail("boom")
        env.rm.node_blacklist.add(env.cluster.compute[1].name)
        with pytest.raises(AllocationError, match="only 14 free of 16"):
            env.rm.allocate(15)

    def test_randomized_ops_stay_scan_identical(self):
        env = make_env(n_compute=32)
        rng = random.Random(1234)
        live_allocs = []
        for _ in range(300):
            op = rng.randrange(5)
            if op == 0:
                want = rng.randrange(1, 6)
                try:
                    live_allocs.append(env.rm.allocate(want))
                except AllocationError:
                    pass
            elif op == 1 and live_allocs:
                env.rm.release(live_allocs.pop(
                    rng.randrange(len(live_allocs))))
            elif op == 2:
                env.cluster.compute[rng.randrange(32)].fail("chaos")
            elif op == 3:
                env.rm.node_blacklist.add(
                    env.cluster.compute[rng.randrange(32)].name)
            elif op == 4 and env.rm.node_blacklist:
                env.rm.node_blacklist.discard(
                    rng.choice(sorted(env.rm.node_blacklist)))
            assert_index_exact(env)
